package snapshot

// Format v2: the mmap-friendly layout. The file splits into a small
// structure stream (decoded normally) and an 8-byte-aligned blob
// region holding every large numeric payload — image planes, Hu
// moments, histogram bins, keypoint records and the packed descriptor
// matrices — which loaders alias instead of decoding. Descriptor
// payloads are grouped by family with each array kind (float rows,
// norms, word rows, keypoints) laid out contiguously across views in
// view order, which is exactly the storage a flat DescriptorIndex
// concatenates: a mapped load aliases one region per family for the
// whole index and a sub-slice of it per view, so neither the per-view
// sets nor the rebuilt indexes copy descriptor bytes.
//
// v2 layout (all integers little-endian):
//
//	[0,8)    magic "SNSNAP\r\n"
//	[8,12)   version u32 (2)
//	[12,16)  reserved u32 (0)
//	[16,24)  structLen u64     length of the structure stream
//	[24,32)  blobLen u64       length of the blob region (multiple of 8)
//	[32,36)  structCRC u32     IEEE CRC of the structure stream
//	[36,40)  blobCRC u32       IEEE CRC of the blob region
//	[40,48)  reserved u64 (0)
//	[48, 48+structLen)            structure stream
//	zero padding to the next 8-byte boundary
//	[blobStart, blobStart+blobLen) blob region; blobStart = align8(48+structLen)
//
// Alignment rules: the blob region and every block inside it start on
// an 8-byte file offset, so float64/uint64 blocks are always 8-aligned
// and float32 blocks at least 4-aligned in the mapping (whose base is
// page-aligned). Within a descriptor region the per-view arrays are
// packed back-to-back with no padding — element sizes keep their own
// alignment and contiguity is what lets the index alias the region.
//
// Integrity: Read verifies both CRCs. A true mmap Map verifies the
// structure CRC and the size/alignment invariants only — checksumming
// the blob would fault in every page and turn the O(structure) mapped
// load back into an O(bytes) one; mapped blob integrity is the file's
// (and the page cache's) job, exactly as with any mmap'd database
// file. Map's heap-read fallback has already paid the full read and
// keeps both checks.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"snmatch/internal/features"
	"snmatch/internal/pipeline"
	"snmatch/internal/synth"
)

const (
	headerLenV2  = 48
	offStructLen = 16
	offBlobLen   = 24
	offStructCRC = 32
	offBlobCRC   = 36
)

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// minViewEncV2 is the smallest on-disk footprint of one v2 view in the
// structure stream (sample ids, image flag, histogram flag, descriptor
// count; Hu lives in the blob).
const minViewEncV2 = 3*8 + 1 + 1 + 1

// blobEnc assembles the blob region while the writer records offsets.
type blobEnc struct{ b []byte }

// align pads to the next 8-byte boundary and returns the new offset.
func (w *blobEnc) align() uint64 {
	for len(w.b)%8 != 0 {
		w.b = append(w.b, 0)
	}
	return uint64(len(w.b))
}

func (w *blobEnc) off() uint64 { return uint64(len(w.b)) }

func (w *blobEnc) bytes(v []byte) { w.b = append(w.b, v...) }

func (w *blobEnc) f32s(v []float32) {
	for _, x := range v {
		w.b = binary.LittleEndian.AppendUint32(w.b, math.Float32bits(x))
	}
}

func (w *blobEnc) f64s(v []float64) {
	for _, x := range v {
		w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(x))
	}
}

func (w *blobEnc) u64s(v []uint64) {
	for _, x := range v {
		w.b = binary.LittleEndian.AppendUint64(w.b, x)
	}
}

// setOffs are one view's descriptor-array blob offsets for one family.
type setOffs struct{ floats, norms, words, kps uint64 }

// keypointBlobEnc is the v2 on-disk keypoint record: X, Y, Size, Angle,
// Response as float32, 4 zero bytes of padding, Octave as int64 — 32
// bytes, 8-aligned, deliberately identical to the in-memory layout of
// features.Keypoint on 64-bit little-endian targets so a mapped load
// aliases whole keypoint blocks instead of decoding them (asKeypoints
// verifies the layout at runtime and the loader falls back to a decode
// loop anywhere it differs).
const keypointBlobEnc = 32

// keypoints appends the 32-byte keypoint records.
func (w *blobEnc) keypoints(kps []features.Keypoint) {
	for _, kp := range kps {
		w.b = binary.LittleEndian.AppendUint32(w.b, math.Float32bits(kp.X))
		w.b = binary.LittleEndian.AppendUint32(w.b, math.Float32bits(kp.Y))
		w.b = binary.LittleEndian.AppendUint32(w.b, math.Float32bits(kp.Size))
		w.b = binary.LittleEndian.AppendUint32(w.b, math.Float32bits(kp.Angle))
		w.b = binary.LittleEndian.AppendUint32(w.b, math.Float32bits(kp.Response))
		w.b = append(w.b, 0, 0, 0, 0) // padding: record stride stays 8-aligned
		w.b = binary.LittleEndian.AppendUint64(w.b, uint64(int64(kp.Octave)))
	}
}

func writeV2(w io.Writer, s *Snapshot) error {
	g := s.Gallery
	nv := len(g.Views)

	// --- blob region ---
	var bw blobEnc
	huOff := bw.align()
	for i := range g.Views {
		hu := g.Views[i].Hu
		bw.f64s(hu[:])
	}
	histOff := make([]uint64, nv)
	for i := range g.Views {
		if h := g.Views[i].Hist; h != nil {
			histOff[i] = bw.align()
			bw.f64s(h.Counts)
		}
	}
	imgOff := make([]uint64, nv)
	for i := range g.Views {
		if img := g.Views[i].Sample.Image; img != nil {
			imgOff[i] = bw.align()
			bw.bytes(img.Pix)
		}
	}
	// Descriptor regions: per family, each array kind contiguous across
	// views in view order (the index-aliasing layout).
	offs := map[pipeline.DescriptorKind][]setOffs{}
	for _, k := range descKinds {
		present := false
		for i := range g.Views {
			if g.Views[i].Desc[k] != nil {
				present = true
				break
			}
		}
		if !present {
			continue
		}
		so := make([]setOffs, nv)
		bw.align()
		for i := range g.Views {
			if s := g.Views[i].Desc[k]; s != nil {
				so[i].floats = bw.off()
				bw.f32s(s.Floats)
			}
		}
		bw.align()
		for i := range g.Views {
			if s := g.Views[i].Desc[k]; s != nil {
				so[i].norms = bw.off()
				bw.f32s(rowNorms(s))
			}
		}
		bw.align()
		for i := range g.Views {
			if s := g.Views[i].Desc[k]; s != nil {
				so[i].words = bw.off()
				bw.u64s(s.Words)
			}
		}
		bw.align()
		for i := range g.Views {
			if s := g.Views[i].Desc[k]; s != nil {
				so[i].kps = bw.off()
				bw.keypoints(s.Keypoints)
			}
		}
		offs[k] = so
	}
	bw.align() // blobLen is a multiple of 8

	// --- structure stream ---
	var e enc
	e.str(s.Name)
	e.str(s.Meta.Dataset)
	e.i64(int64(s.Meta.Size))
	e.u64(s.Meta.Seed)
	e.u64(huOff)
	e.u32(uint32(nv))
	for i := range g.Views {
		v := &g.Views[i]
		e.i64(int64(v.Sample.Class))
		e.i64(int64(v.Sample.Model))
		e.i64(int64(v.Sample.View))
		if img := v.Sample.Image; img != nil {
			e.u8(1)
			e.u32(uint32(img.W))
			e.u32(uint32(img.H))
			e.u64(imgOff[i])
		} else {
			e.u8(0)
		}
		if h := v.Hist; h != nil {
			e.u8(1)
			e.u32(uint32(h.Bins))
			e.u64(histOff[i])
		} else {
			e.u8(0)
		}
		present := make([]pipeline.DescriptorKind, 0, len(descKinds))
		for _, k := range descKinds {
			if v.Desc[k] != nil {
				present = append(present, k)
			}
		}
		e.u8(uint8(len(present)))
		for _, k := range present {
			e.u8(uint8(k))
			set := v.Desc[k]
			e.u8(b2u8(set.Binary))
			e.u32(uint32(len(set.Keypoints)))
			e.u64(offs[k][i].kps)
			e.u32(uint32(set.Len()))
			e.u32(uint32(set.Dim))
			e.u32(uint32(set.RowBytes))
			e.u32(uint32(set.WordsPerRow))
			so := offs[k][i]
			e.u64(so.floats)
			e.u64(so.norms)
			e.u64(so.words)
		}
	}
	encodeIndexKinds(&e, g)

	// --- assemble ---
	var hdr [headerLenV2]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	binary.LittleEndian.PutUint64(hdr[offStructLen:], uint64(len(e.b)))
	binary.LittleEndian.PutUint64(hdr[offBlobLen:], uint64(len(bw.b)))
	binary.LittleEndian.PutUint32(hdr[offStructCRC:], crc32.ChecksumIEEE(e.b))
	binary.LittleEndian.PutUint32(hdr[offBlobCRC:], crc32.ChecksumIEEE(bw.b))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	if _, err := w.Write(e.b); err != nil {
		return fmt.Errorf("snapshot: write structure: %w", err)
	}
	if pad := align8(headerLenV2+len(e.b)) - (headerLenV2 + len(e.b)); pad > 0 {
		var zero [8]byte
		if _, err := w.Write(zero[:pad]); err != nil {
			return fmt.Errorf("snapshot: write padding: %w", err)
		}
	}
	if _, err := w.Write(bw.b); err != nil {
		return fmt.Errorf("snapshot: write blob: %w", err)
	}
	return nil
}

// blob is the decoded-side view of the blob region: bounds- and
// alignment-checked accessors that alias (on little-endian targets)
// instead of copying. All failures are ErrCorrupt via the dec.
type blob struct {
	b []byte
	d *dec
}

// slice bounds-checks [off, off+n*size) with overflow-safe arithmetic
// and the element alignment rule (the element size, capped at the
// blob's 8-byte block alignment), returning the raw byte window.
func (bl blob) slice(off uint64, n, size int) []byte {
	if bl.d.err != nil {
		return nil
	}
	align := uint64(size)
	if align > 8 {
		align = 8
	}
	if n < 0 || n > len(bl.b)/size || off%align != 0 ||
		off > uint64(len(bl.b)) || uint64(n*size) > uint64(len(bl.b))-off {
		bl.d.fail("blob ref [%d, +%dx%d) outside %d-byte blob region", off, n, size, len(bl.b))
		return nil
	}
	return bl.b[off : off+uint64(n*size)]
}

func (bl blob) bytesAt(off uint64, n int) []byte {
	raw := bl.slice(off, n, 1)
	if raw == nil || n == 0 {
		return nil
	}
	return raw
}

func (bl blob) f32s(off uint64, n int) []float32 {
	raw := bl.slice(off, n, 4)
	if raw == nil || n == 0 {
		return nil
	}
	return asF32s(raw, n)
}

func (bl blob) f64s(off uint64, n int) []float64 {
	raw := bl.slice(off, n, 8)
	if raw == nil || n == 0 {
		return nil
	}
	return asF64s(raw, n)
}

func (bl blob) u64s(off uint64, n int) []uint64 {
	raw := bl.slice(off, n, 8)
	if raw == nil || n == 0 {
		return nil
	}
	return asU64s(raw, n)
}

// keypoints reads a keypoint block: aliased in place when the record
// layout matches features.Keypoint (64-bit little-endian), decoded
// field-wise off the restore slab otherwise.
func (bl blob) keypoints(off uint64, n int, a *features.RestoreAlloc) []features.Keypoint {
	raw := bl.slice(off, n, keypointBlobEnc)
	if raw == nil || n == 0 {
		return nil
	}
	if kps := asKeypoints(raw, n); kps != nil {
		return kps
	}
	kps := a.Keypoints(n)
	for i := range kps {
		f := raw[i*keypointBlobEnc : (i+1)*keypointBlobEnc]
		kps[i].X = math.Float32frombits(binary.LittleEndian.Uint32(f))
		kps[i].Y = math.Float32frombits(binary.LittleEndian.Uint32(f[4:]))
		kps[i].Size = math.Float32frombits(binary.LittleEndian.Uint32(f[8:]))
		kps[i].Angle = math.Float32frombits(binary.LittleEndian.Uint32(f[12:]))
		kps[i].Response = math.Float32frombits(binary.LittleEndian.Uint32(f[16:]))
		kps[i].Octave = int(int64(binary.LittleEndian.Uint64(f[24:])))
	}
	return kps
}

// indexRegion carries the concatenated per-family blob storage the
// loader aliases a rebuilt flat index onto (nil slices fall back to a
// copying rebuild).
type indexRegion struct {
	floats []float32
	words  []uint64
}

// regionTally accumulates, during view decoding, what a family's
// index-aliasing region must look like: the offset of the first
// non-empty array and the total row count.
type regionTally struct {
	rows                int
	dim, wpr            int
	floatOff, wordOff   uint64
	haveFloat, haveWord bool
}

// readV2 decodes a v2 snapshot from the complete file bytes. Every
// descriptor matrix aliases raw, so a mapped load copies no row;
// verifyBlob selects whether the blob CRC is checked (heap loads) or
// skipped (mapped loads stay O(structure)).
func readV2(raw []byte, verifyBlob bool) (*Snapshot, error) {
	if len(raw) < headerLenV2 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a v2 header", ErrCorrupt, len(raw))
	}
	if [8]byte(raw[:8]) != magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, this path supports version %d", ErrVersion, v, Version)
	}
	structLen := binary.LittleEndian.Uint64(raw[offStructLen:])
	blobLen := binary.LittleEndian.Uint64(raw[offBlobLen:])
	if structLen > uint64(len(raw)-headerLenV2) {
		return nil, fmt.Errorf("%w: structure length %d exceeds file", ErrCorrupt, structLen)
	}
	blobStart := uint64(align8(headerLenV2 + int(structLen)))
	if blobLen%8 != 0 || blobLen > uint64(len(raw)) || blobStart != uint64(len(raw))-blobLen {
		return nil, fmt.Errorf("%w: file length %d does not match structure %d + blob %d", ErrCorrupt, len(raw), structLen, blobLen)
	}
	structure := raw[headerLenV2 : headerLenV2+int(structLen)]
	if got, want := crc32.ChecksumIEEE(structure), binary.LittleEndian.Uint32(raw[offStructCRC:]); got != want {
		return nil, fmt.Errorf("%w: structure checksum %08x, recorded %08x", ErrCorrupt, got, want)
	}
	blobBytes := raw[blobStart:]
	if verifyBlob {
		if got, want := crc32.ChecksumIEEE(blobBytes), binary.LittleEndian.Uint32(raw[offBlobCRC:]); got != want {
			return nil, fmt.Errorf("%w: blob checksum %08x, recorded %08x", ErrCorrupt, got, want)
		}
	}

	d := &dec{b: structure}
	bl := blob{b: blobBytes, d: d}
	out := &Snapshot{}
	out.Name = d.str()
	out.Meta.Dataset = d.str()
	out.Meta.Size = int(d.i64())
	out.Meta.Seed = d.u64()
	huOff := d.u64()
	nv := d.count(int(d.u32()), minViewEncV2)
	hu := bl.f64s(huOff, nv*7)
	var views []pipeline.View
	tallies := map[pipeline.DescriptorKind]*regionTally{}
	alloc := &features.RestoreAlloc{}
	if d.err == nil {
		views = make([]pipeline.View, nv)
		for i := range views {
			decodeViewV2(d, bl, &views[i], hu, i, tallies, alloc)
			if d.err != nil {
				break
			}
		}
	}
	indexKinds := decodeIndexKinds(d)
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	// Resolve each family's index-aliasing region. A region that fails
	// its bounds check (possible only in a crafted file) degrades to a
	// copying index rebuild rather than an error: the per-set blocks
	// already validated, so correctness never depends on contiguity.
	regions := map[pipeline.DescriptorKind]indexRegion{}
	for k, t := range tallies {
		var r indexRegion
		probe := &dec{b: nil}
		pbl := blob{b: blobBytes, d: probe}
		if t.haveFloat && t.dim > 0 && t.rows <= len(blobBytes)/4/t.dim {
			r.floats = pbl.f32s(t.floatOff, t.rows*t.dim)
		}
		if t.haveWord && t.wpr > 0 && t.rows <= len(blobBytes)/8/t.wpr {
			r.words = pbl.u64s(t.wordOff, t.rows*t.wpr)
		}
		if probe.err == nil {
			regions[k] = r
		}
	}
	idx, err := buildIndexes(views, indexKinds, regions)
	if err != nil {
		return nil, err
	}
	out.Gallery = pipeline.RestoreGallery(views, idx)
	return out, nil
}

func decodeViewV2(d *dec, bl blob, v *pipeline.View, hu []float64, i int, tallies map[pipeline.DescriptorKind]*regionTally, alloc *features.RestoreAlloc) {
	v.Sample.Class = synth.Class(d.i64())
	v.Sample.Model = int(d.i64())
	v.Sample.View = int(d.i64())
	if d.u8() == 1 {
		w, h := int(d.u32()), int(d.u32())
		var pix []byte
		if d.err == nil && w > 0 && h > 0 && w <= maxImageSide && h <= maxImageSide {
			pix = bl.bytesAt(d.u64(), 3*w*h)
		} else {
			d.fail("image dimensions %dx%d", w, h)
		}
		if d.err == nil {
			if img := restoreImage(d, w, h, pix); img != nil {
				v.Sample.Image = img
			} else {
				return
			}
		}
	}
	if d.err == nil && len(hu) >= (i+1)*7 {
		copy(v.Hu[:], hu[i*7:(i+1)*7])
	}
	if d.u8() == 1 {
		bins := int(d.u32())
		var counts []float64
		if d.err == nil && bins >= 1 && bins <= 256 {
			counts = bl.f64s(d.u64(), bins*bins*bins)
		} else {
			d.fail("histogram bins %d", bins)
		}
		if d.err == nil {
			if h := restoreHist(d, bins, counts); h != nil {
				v.Hist = h
			} else {
				return
			}
		}
	}
	v.Desc = make(map[pipeline.DescriptorKind]*features.Set, 3)
	for n := int(d.u8()); n > 0 && d.err == nil; n-- {
		k := pipeline.DescriptorKind(d.u8())
		if s := decodeSetV2(d, bl, k, tallies, alloc); d.err == nil {
			v.Desc[k] = s
		}
	}
}

func decodeSetV2(d *dec, bl blob, k pipeline.DescriptorKind, tallies map[pipeline.DescriptorKind]*regionTally, alloc *features.RestoreAlloc) *features.Set {
	s := alloc.Set()
	s.Binary = d.u8() == 1
	nk := int(d.u32())
	kpsOff := d.u64()
	if d.err != nil {
		return nil
	}
	s.Keypoints = bl.keypoints(kpsOff, nk, alloc)
	if d.err != nil {
		return nil
	}
	n := int(d.u32())
	s.Dim = int(d.u32())
	s.RowBytes = int(d.u32())
	s.WordsPerRow = int(d.u32())
	if d.err != nil {
		return nil
	}
	// The counts are still raw wire values here; bound the products the
	// blob accessors will be asked for before computing them.
	if n < 0 || s.Dim < 0 || s.WordsPerRow < 0 ||
		(s.Dim > 0 && n > len(bl.b)/4/s.Dim) ||
		(s.WordsPerRow > 0 && n > len(bl.b)/8/s.WordsPerRow) {
		d.fail("descriptor matrix exceeds blob (N=%d dim=%d wpr=%d)", n, s.Dim, s.WordsPerRow)
		return nil
	}
	floatOff := d.u64()
	normOff := d.u64()
	wordOff := d.u64()
	if d.err != nil {
		return nil
	}
	norms := 0
	if s.Dim > 0 {
		s.Floats = bl.f32s(floatOff, n*s.Dim)
		bl.slice(normOff, n, 4) // bounds-check the norm block; nothing reads it
		norms = n
	}
	if s.WordsPerRow > 0 {
		s.Words = bl.u64s(wordOff, n*s.WordsPerRow)
	}
	if d.err != nil || !checkSetShape(d, s, n, norms) {
		return nil
	}
	// Tally the family's region: rows accumulate in view order; the
	// first non-empty array fixes the region start.
	if n > 0 {
		t := tallies[k]
		if t == nil {
			t = &regionTally{}
			tallies[k] = t
		}
		if s.Dim > 0 && !t.haveFloat {
			t.haveFloat, t.floatOff, t.dim = true, floatOff, s.Dim
		}
		if s.WordsPerRow > 0 && !t.haveWord {
			t.haveWord, t.wordOff, t.wpr = true, wordOff, s.WordsPerRow
		}
		t.rows += n
	}
	return s
}
