package imaging

import (
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"image/png"
	"io"
	"math"
	"math/bits"
	"os"
	"sync"
)

// SavePNG writes m to path as a PNG file.
func (m *Image) SavePNG(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("imaging: save png: %w", err)
	}
	defer f.Close()
	if err := png.Encode(f, m.ToStdImage()); err != nil {
		return fmt.Errorf("imaging: encode png: %w", err)
	}
	return f.Close()
}

// LoadPNG reads a PNG file into an Image.
func LoadPNG(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("imaging: load png: %w", err)
	}
	defer f.Close()
	img, err := png.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("imaging: decode png: %w", err)
	}
	return FromStdImage(img), nil
}

// DecodePNG decodes a PNG body that is 8-bit truecolor (colour type 2)
// without interlace, whose header declares at most maxPixels pixels,
// and that has no PLTE or tRNS chunk: what image/png's encoder writes
// for every opaque raster. Each scanline is inflated straight into its
// row of the Image and unfiltered there against the row above, with
// image/png's arithmetic, so the result equals
// FromStdImage(png.Decode(raw)) byte for byte.
//
// It accepts only bodies png.Decode accepts: IHDR first, every chunk's
// CRC through IEND, chunk order, the filter types, and a zlib stream,
// adler32 included, that ends exactly where its run of consecutive IDAT
// chunks ends. Every other body reports false, to be decoded with
// image/png, which then answers it as before; a header it refuses
// reports false before anything is allocated.
func DecodePNG(raw []byte, maxPixels int) (*Image, bool) {
	w, h, idat, ok := checkTruecolorPNG(raw, maxPixels)
	if !ok {
		return nil, false
	}
	d := pngInflaters.Get().(*pngInflater)
	img, ok := d.inflate(raw, idat, w, h)
	// Drop every reference into the body, so the pool pins none.
	d.src = idatReader{}
	pngInflaters.Put(d)
	return img, ok
}

var pngSignature = [8]byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n'}

// checkTruecolorPNG walks the chunks of raw through IEND and returns
// the header's size and the offset of the first IDAT chunk, if raw is
// an 8-bit truecolor, non-interlaced PNG of at most maxPixels pixels
// whose chunks all check.
func checkTruecolorPNG(raw []byte, maxPixels int) (w, h, idat int, ok bool) {
	const ihdrEnd = 8 + 8 + 13 + 4
	if len(raw) < ihdrEnd || [8]byte(raw[:8]) != pngSignature ||
		binary.BigEndian.Uint32(raw[8:]) != 13 || string(raw[12:16]) != "IHDR" {
		return 0, 0, 0, false
	}
	hdr := raw[16:29]
	w32, h32 := binary.BigEndian.Uint32(hdr[0:4]), binary.BigEndian.Uint32(hdr[4:8])
	// png.Decode refuses dimensions of 2^31 and up, and w*h*8 that
	// overflows an int.
	if w32 == 0 || h32 == 0 || w32 > math.MaxInt32 || h32 > math.MaxInt32 {
		return 0, 0, 0, false
	}
	w, h = int(w32), int(h32)
	if w > maxPixels/h || w > math.MaxInt/8/h ||
		hdr[8] != 8 || hdr[9] != 2 || hdr[10] != 0 || hdr[11] != 0 || hdr[12] != 0 {
		return 0, 0, 0, false
	}
	idat = -1
	for p := 8; ; {
		if len(raw)-p < 12 {
			return 0, 0, 0, false
		}
		n := binary.BigEndian.Uint32(raw[p:])
		if n > math.MaxInt32 || int(n) > len(raw)-p-12 {
			return 0, 0, 0, false
		}
		end := p + 8 + int(n)
		if crc32.ChecksumIEEE(raw[p+4:end]) != binary.BigEndian.Uint32(raw[end:]) {
			return 0, 0, 0, false
		}
		switch string(raw[p+4 : p+8]) {
		case "IHDR":
			if p != 8 {
				return 0, 0, 0, false
			}
		case "PLTE", "tRNS":
			return 0, 0, 0, false
		case "IDAT":
			if idat < 0 {
				idat = p
			}
		case "IEND":
			return w, h, idat, idat >= 0 && n == 0
		}
		p = end + 4
	}
}

// pngInflater is DecodePNG's pooled working set: a zlib reader, reset
// onto each body's IDAT run.
type pngInflater struct {
	src idatReader
	zr  io.ReadCloser
	ft  [1]byte
}

var pngInflaters = sync.Pool{New: func() any { return new(pngInflater) }}

// inflate decodes the checked body's IDAT run, which starts at offset
// idat, into a w x h Image.
func (d *pngInflater) inflate(raw []byte, idat, w, h int) (*Image, bool) {
	d.src = idatReader{body: raw, next: idat}
	if d.zr == nil {
		zr, err := zlib.NewReader(&d.src)
		if err != nil {
			return nil, false
		}
		d.zr = zr
	} else if d.zr.(zlib.Resetter).Reset(&d.src, nil) != nil {
		return nil, false
	}
	img := NewImage(w, h)
	stride := 3 * w
	var prev []byte
	for y := 0; y < h; y++ {
		row := img.Pix[y*stride:][:stride]
		if _, err := io.ReadFull(d.zr, d.ft[:]); err != nil {
			return nil, false
		}
		if _, err := io.ReadFull(d.zr, row); err != nil {
			return nil, false
		}
		if !unfilter(d.ft[0], row, prev) {
			return nil, false
		}
		prev = row
	}
	// The stream must end here, its adler32 checked, on the run's last
	// byte.
	if n, err := d.zr.Read(d.ft[:]); n != 0 || err != io.EOF || d.src.advance() {
		return nil, false
	}
	return img, true
}

// idatReader reads the data of a run of consecutive IDAT chunks of a
// checked body as one stream. It is an io.ByteReader, so flate reads
// it without a bufio.Reader of its own, and it moves through a chunk by
// index, so a byte read writes no pointer.
type idatReader struct {
	body []byte
	cur  []byte // data of the current chunk
	pos  int    // next unread byte of cur
	next int    // offset of the chunk after it
}

// advance moves to the run's next chunk with data, reporting false at
// the end of the run.
func (r *idatReader) advance() bool {
	for r.pos == len(r.cur) {
		p := r.next
		if len(r.body)-p < 12 || string(r.body[p+4:p+8]) != "IDAT" {
			return false
		}
		n := int(binary.BigEndian.Uint32(r.body[p:]))
		r.cur, r.pos, r.next = r.body[p+8:p+8+n], 0, p+12+n
	}
	return true
}

func (r *idatReader) ReadByte() (byte, error) {
	if r.pos == len(r.cur) && !r.advance() {
		return 0, io.EOF
	}
	b := r.cur[r.pos]
	r.pos++
	return b, nil
}

func (r *idatReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if r.pos == len(r.cur) && !r.advance() {
		return 0, io.EOF
	}
	n := copy(p, r.cur[r.pos:])
	r.pos += n
	return n, nil
}

// unfilter undoes PNG filter type ft on the 3-byte-per-pixel scanline
// cdat in place, against the unfiltered row above, pdat; a nil pdat is
// the first row, whose row above is all zero. It reports false for a
// filter type above 4, which png.Decode refuses. Each byte gets
// image/png's arithmetic; the loops walk whole pixels and carry the
// left pixel in registers, so the three channels' chains overlap.
func unfilter(ft byte, cdat, pdat []byte) bool {
	if pdat == nil {
		// With a zero row above, Up adds nothing, Paeth predicts the
		// left neighbour (paeth(a, 0, 0) = a) as Sub does, and Average
		// adds half the left neighbour.
		switch ft {
		case 2:
			return true
		case 4:
			ft = 1
		case 3:
			var a0, a1, a2 byte
			for i := 0; i+3 <= len(cdat); i += 3 {
				c := cdat[i : i+3 : i+3]
				a0, a1, a2 = c[0]+a0/2, c[1]+a1/2, c[2]+a2/2
				c[0], c[1], c[2] = a0, a1, a2
			}
			return true
		}
	}
	switch ft {
	case 0:
	case 1:
		var a0, a1, a2 byte
		for i := 0; i+3 <= len(cdat); i += 3 {
			c := cdat[i : i+3 : i+3]
			a0, a1, a2 = c[0]+a0, c[1]+a1, c[2]+a2
			c[0], c[1], c[2] = a0, a1, a2
		}
	case 2:
		// Bytewise adds eight at a time: the low seven bits of each
		// byte add without reaching the next byte, and the top bit is
		// the xor of the two top bits and that carry.
		const low7, top = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
		i := 0
		for ; i+8 <= len(cdat); i += 8 {
			x, y := binary.LittleEndian.Uint64(cdat[i:]), binary.LittleEndian.Uint64(pdat[i:])
			binary.LittleEndian.PutUint64(cdat[i:], (x&low7+y&low7)^((x^y)&top))
		}
		for ; i < len(cdat); i++ {
			cdat[i] += pdat[i]
		}
	case 3:
		var a0, a1, a2 byte
		for i := 0; i+3 <= len(cdat); i += 3 {
			c, p := cdat[i:i+3:i+3], pdat[i:i+3:i+3]
			a0 = c[0] + byte((int(a0)+int(p[0]))/2)
			a1 = c[1] + byte((int(a1)+int(p[1]))/2)
			a2 = c[2] + byte((int(a2)+int(p[2]))/2)
			c[0], c[1], c[2] = a0, a1, a2
		}
	case 4:
		var a0, a1, a2, c0, c1, c2 int
		for i := 0; i+3 <= len(cdat); i += 3 {
			c, p := cdat[i:i+3:i+3], pdat[i:i+3:i+3]
			b0, b1, b2 := int(p[0]), int(p[1]), int(p[2])
			a0 = (paeth(a0, b0, c0) + int(c[0])) & 0xff
			a1 = (paeth(a1, b1, c1) + int(c[1])) & 0xff
			a2 = (paeth(a2, b2, c2) + int(c[2])) & 0xff
			c[0], c[1], c[2] = byte(a0), byte(a1), byte(a2)
			c0, c1, c2 = b0, b1, b2
		}
	default:
		return false
	}
	return true
}

// paeth is image/png's Paeth predictor of a byte from its left (a),
// upper (b) and upper-left (c) neighbours: a when pa <= pb and
// pa <= pc, else b when pb <= pc, else c. Picking the nearer of b and c
// first keeps those ties and leaves no branch to mispredict. x>>s is
// -1 for negative x and 0 otherwise, so x*(x>>s|1) is |x|.
func paeth(a, b, c int) int {
	const s = bits.UintSize - 1
	pa, pb := b-c, a-c
	pc := pa + pb
	pa, pb, pc = pa*(pa>>s|1), pb*(pb>>s|1), pc*(pc>>s|1)
	if pc < pb {
		b, pb = c, pc
	}
	if pb < pa {
		a = b
	}
	return a
}
