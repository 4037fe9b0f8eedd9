package imaging

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"math/rand"
	"testing"
)

// pngChunk returns one PNG chunk: length, type, data and the CRC of
// type and data.
func pngChunk(typ string, data []byte) []byte {
	b := make([]byte, 8, 12+len(data))
	binary.BigEndian.PutUint32(b, uint32(len(data)))
	copy(b[4:], typ)
	b = append(b, data...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[4:]))
}

// pngIHDR is the header chunk of a w x h image.
func pngIHDR(w, h int, depth, colorType, interlace byte) []byte {
	d := make([]byte, 13)
	binary.BigEndian.PutUint32(d[0:], uint32(w))
	binary.BigEndian.PutUint32(d[4:], uint32(h))
	d[8], d[9], d[12] = depth, colorType, interlace
	return pngChunk("IHDR", d)
}

// pngBody joins the signature and the chunks.
func pngBody(chunks ...[]byte) []byte {
	return append(pngSignature[:], bytes.Join(chunks, nil)...)
}

// paethRef is the Paeth predictor as the PNG specification writes it.
func paethRef(a, b, c byte) byte {
	p := int(a) + int(b) - int(c)
	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	pa, pb, pc := abs(p-int(a)), abs(p-int(b)), abs(p-int(c))
	if pa <= pb && pa <= pc {
		return a
	}
	if pb <= pc {
		return b
	}
	return c
}

// TestPaethMatchesSpec compares the branch-free predictor with the
// specification's for every (a, b, c).
func TestPaethMatchesSpec(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			for c := 0; c < 256; c++ {
				if got, want := paeth(a, b, c), int(paethRef(byte(a), byte(b), byte(c))); got != want {
					t.Fatalf("paeth(%d, %d, %d) = %d, want %d", a, b, c, got, want)
				}
			}
		}
	}
}

// filterScanlines returns the w x h RGB raster pix as PNG scanlines,
// row y filtered with type ft(y) (a type above 4 predicts zero) and led
// by its filter byte.
func filterScanlines(pix []byte, w, h int, ft func(y int) byte) []byte {
	stride := 3 * w
	out := make([]byte, 0, h*(stride+1))
	prev := make([]byte, stride)
	for y := 0; y < h; y++ {
		cur, f := pix[y*stride:][:stride], ft(y)
		out = append(out, f)
		for i, v := range cur {
			var a, c byte
			if i >= 3 {
				a, c = cur[i-3], prev[i-3]
			}
			b := prev[i]
			var pred byte
			switch f {
			case 1:
				pred = a
			case 2:
				pred = b
			case 3:
				pred = byte((int(a) + int(b)) / 2)
			case 4:
				pred = paethRef(a, b, c)
			}
			out = append(out, v-pred)
		}
		prev = cur
	}
	return out
}

// zlibOf compresses data into one zlib stream.
func zlibOf(data []byte) []byte {
	var buf bytes.Buffer
	zw := zlib.NewWriter(&buf)
	zw.Write(data)
	zw.Close()
	return buf.Bytes()
}

// pngCase is one test body, and whether DecodePNG must take it (fast)
// or leave it to image/png.
type pngCase struct {
	name string
	body []byte
	fast bool
}

// pngCases builds the decoder's test bodies from random rasters: every
// filter type on every row, small and odd sizes, IDAT runs split every
// way, ancillary chunks, chunks and streams that must fall back, and
// bodies png.Decode refuses.
func pngCases() []pngCase {
	r := rand.New(rand.NewSource(26))
	raster := func(w, h int) []byte {
		pix := make([]byte, 3*w*h)
		r.Read(pix)
		return pix
	}
	var cases []pngCase
	add := func(fast bool, name string, chunks ...[]byte) {
		cases = append(cases, pngCase{name, pngBody(chunks...), fast})
	}
	iend := pngChunk("IEND", nil)

	for _, w := range []int{1, 2, 3, 7} {
		for _, h := range []int{1, 2, 7} {
			pix := raster(w, h)
			for ft := byte(0); ft <= 4; ft++ {
				z := zlibOf(filterScanlines(pix, w, h, func(int) byte { return ft }))
				add(true, fmt.Sprintf("filter%d-%dx%d", ft, w, h), pngIHDR(w, h, 8, 2, 0), pngChunk("IDAT", z), iend)
			}
			z := zlibOf(filterScanlines(pix, w, h, func(y int) byte { return byte(y % 5) }))
			add(true, fmt.Sprintf("mixed-%dx%d", w, h), pngIHDR(w, h, 8, 2, 0), pngChunk("IDAT", z), iend)
		}
	}

	const w, h = 7, 7
	hdr := pngIHDR(w, h, 8, 2, 0)
	lines := filterScanlines(raster(w, h), w, h, func(y int) byte { return byte((y + 2) % 5) })
	z := zlibOf(lines)
	idat := pngChunk("IDAT", z)
	text := pngChunk("tEXt", []byte("Comment\x00ok"))
	add(true, "plain", hdr, idat, iend)

	bytewise := [][]byte{hdr}
	for i := range z {
		bytewise = append(bytewise, pngChunk("IDAT", z[i:i+1]))
	}
	add(true, "idat-1-byte-chunks", append(bytewise, iend)...)
	for k := 0; k <= len(z); k++ { // k >= len(z)-4 splits the adler32
		add(true, fmt.Sprintf("idat-split-%d", k), hdr, pngChunk("IDAT", z[:k]), pngChunk("IDAT", z[k:]), iend)
	}
	empty := pngChunk("IDAT", nil)
	add(true, "idat-zero-length", hdr, empty, pngChunk("IDAT", z[:5]), empty, empty, pngChunk("IDAT", z[5:]), empty, iend)
	add(true, "ancillary-around-idat", hdr, text, idat, pngChunk("tIME", make([]byte, 7)), text, iend)
	add(true, "trailing-idat-after-ancillary", hdr, idat, text, pngChunk("IDAT", []byte("garbage")), iend)
	add(true, "bytes-after-iend", append(pngBody(hdr, idat, iend), "trailing"...)[8:])

	// png.Decode takes these, in its own way; DecodePNG leaves them.
	add(false, "plte", hdr, pngChunk("PLTE", make([]byte, 3*4)), idat, iend)
	add(false, "trns", hdr, pngChunk("tRNS", []byte{0, 1, 0, 2, 0, 3}), idat, iend)
	add(false, "ancillary-before-ihdr", text, hdr, idat, iend)
	add(false, "bytes-after-stream", hdr, pngChunk("IDAT", append(z[:len(z):len(z)], 1, 2, 3)), iend)
	add(false, "trailing-idat-in-run", hdr, idat, pngChunk("IDAT", []byte("garbage")), iend)
	add(false, "rgba", pngIHDR(w, h, 8, 6, 0), pngChunk("IDAT", zlibOf(make([]byte, h*(1+4*w)))), iend)
	add(false, "gray", pngIHDR(w, h, 8, 0, 0), pngChunk("IDAT", zlibOf(make([]byte, h*(1+w)))), iend)
	add(false, "rgb16", pngIHDR(w, h, 16, 2, 0), pngChunk("IDAT", zlibOf(make([]byte, h*(1+6*w)))), iend)

	// png.Decode refuses these.
	for i, c := range [][]byte{hdr, text, idat, iend} {
		chunks := [][]byte{hdr, text, idat, iend}
		bad := bytes.Clone(c)
		bad[len(bad)-1] ^= 1
		chunks[i] = bad
		add(false, fmt.Sprintf("bad-crc-%s", c[4:8]), chunks...)
	}
	half := len(z) / 2
	badRun := pngChunk("IDAT", z[half:])
	badRun[len(badRun)-2] ^= 0x80
	add(false, "bad-crc-second-idat", hdr, pngChunk("IDAT", z[:half]), badRun, iend)
	add(false, "missing-iend", hdr, idat)
	add(false, "iend-with-data", hdr, idat, pngChunk("IEND", []byte{0}))
	add(false, "iend-before-idat", hdr, iend, idat, iend)
	add(false, "second-ihdr", hdr, idat, hdr, iend)
	add(false, "no-idat", hdr, iend)
	add(false, "truncated-stream", hdr, pngChunk("IDAT", z[:len(z)-1]), iend)
	badAdler := bytes.Clone(z)
	badAdler[len(badAdler)-1] ^= 1
	add(false, "bad-adler32", hdr, pngChunk("IDAT", badAdler), iend)
	add(false, "filter-type-5", hdr, pngChunk("IDAT", zlibOf(filterScanlines(raster(w, h), w, h, func(y int) byte { return byte(5 * (y / 6)) }))), iend)
	add(false, "too-much-pixel-data", hdr, pngChunk("IDAT", zlibOf(append(bytes.Clone(lines), 0))), iend)
	add(false, "too-little-pixel-data", hdr, pngChunk("IDAT", zlibOf(lines[:len(lines)-1])), iend)
	add(false, "interlaced", pngIHDR(w, h, 8, 2, 1), idat, iend)
	add(false, "zero-width", pngIHDR(0, h, 8, 2, 0), idat, iend)
	add(false, "over-cap", pngIHDR(1<<20, 1<<20, 8, 2, 0), idat, iend)
	add(false, "truncated-chunk", append(pngBody(hdr, idat), iend[:6]...)[8:])
	return cases
}

// TestDecodePNGMatchesStdlib requires each test body to answer exactly
// as image/png does: DecodePNG takes the bodies it must take, leaves
// every other one, and never takes a body png.Decode refuses; what it
// takes equals png.Decode's image through the per-pixel At conversion.
func TestDecodePNGMatchesStdlib(t *testing.T) {
	const maxPixels = 1 << 20
	for _, tc := range pngCases() {
		// As the server does, refuse a header over the cap before
		// png.Decode allocates its raster.
		var std image.Image
		cfg, err := png.DecodeConfig(bytes.NewReader(tc.body))
		if err == nil && int64(cfg.Width)*int64(cfg.Height) > maxPixels {
			err = fmt.Errorf("%dx%d is over the cap", cfg.Width, cfg.Height)
		} else if err == nil {
			std, err = png.Decode(bytes.NewReader(tc.body))
		}
		got, ok := DecodePNG(tc.body, maxPixels)
		switch {
		case ok != tc.fast:
			t.Errorf("%s: DecodePNG took it = %v, want %v (png.Decode error: %v)", tc.name, ok, tc.fast, err)
		case ok && err != nil:
			t.Errorf("%s: DecodePNG took a body png.Decode refuses: %v", tc.name, err)
		case ok:
			sameImage(t, tc.name, genericFromStd(std), got)
		}
	}
}

// TestDecodePNGEncoderOutput decodes what image/png's own encoder
// writes for opaque rasters at every compression level, and refuses a
// header over the pixel cap.
func TestDecodePNGEncoderOutput(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for _, size := range [][2]int{{1, 1}, {5, 3}, {64, 64}, {320, 240}} {
		m := image.NewRGBA(image.Rect(0, 0, size[0], size[1]))
		for i := range m.Pix {
			m.Pix[i] = uint8(r.Intn(256) / (1 + i%17))
		}
		for i := 3; i < len(m.Pix); i += 4 {
			m.Pix[i] = 0xff
		}
		for _, level := range []png.CompressionLevel{png.DefaultCompression, png.NoCompression, png.BestSpeed, png.BestCompression} {
			var buf bytes.Buffer
			if err := (&png.Encoder{CompressionLevel: level}).Encode(&buf, m); err != nil {
				t.Fatal(err)
			}
			got, ok := DecodePNG(buf.Bytes(), size[0]*size[1])
			if !ok {
				t.Fatalf("%v at level %d: DecodePNG refused the encoder's output", size, level)
			}
			sameImage(t, fmt.Sprintf("%v level %d", size, level), genericFromStd(m), got)
			if _, ok := DecodePNG(buf.Bytes(), size[0]*size[1]-1); ok {
				t.Fatalf("%v: DecodePNG took a body over the pixel cap", size)
			}
		}
	}
	// A paletted raster falls back.
	p := image.NewPaletted(image.Rect(0, 0, 4, 4), color.Palette{color.Black, color.White})
	var buf bytes.Buffer
	png.Encode(&buf, p)
	if _, ok := DecodePNG(buf.Bytes(), 16); ok {
		t.Fatal("DecodePNG took a paletted body")
	}
}
