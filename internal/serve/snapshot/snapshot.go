// Package snapshot persists prepared recognition galleries: a versioned
// little-endian binary codec over every piece of state a gallery needs
// to classify without re-rendering or re-extracting — views (image,
// class, model, view id), Hu moments, colour histograms, the packed
// descriptor blocks of every extracted family with their keypoints, and
// the set of prepared flat-index kinds (the indexes themselves are
// rebuilt deterministically from the packed blocks on load, so the
// descriptor bytes are stored once). The contract is round-trip
// exactness: a loaded gallery produces bit-identical predictions to the
// gallery that was saved, for every pipeline.
//
// Two format versions exist:
//
//   - v1 is a single length-prefixed payload stream that Read decodes
//     field by field into fresh heap slices. The reader is kept for
//     back-compat; WriteV1/SaveV1 still produce it for older loaders.
//   - v2 (the default, see v2.go) separates the file into a small
//     structure stream and an 8-byte-aligned blob region holding the
//     large numeric payloads, so Map can alias the packed descriptor
//     matrices straight off a read-only memory mapping with zero
//     copies: loading a large gallery costs O(structure), not O(bytes).
//
// v1 layout:
//
//	magic   8 bytes "SNSNAP\r\n"
//	version uint32 (1)
//	payload length-prefixed fields (see encode/decode below)
//	crc32   IEEE checksum of the payload
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"snmatch/internal/fault"
	"snmatch/internal/features"
	"snmatch/internal/histogram"
	"snmatch/internal/imaging"
	"snmatch/internal/pipeline"
	"snmatch/internal/synth"
)

// Version is the current snapshot format version, the one Write and
// Save produce. VersionV1 is the legacy single-stream format; its
// reader is retained so v1 snapshots keep loading.
const (
	Version   = 2
	VersionV1 = 1
)

var magic = [8]byte{'S', 'N', 'S', 'N', 'A', 'P', '\r', '\n'}

// Errors the loader distinguishes. ErrVersion is wrapped with the
// got/want pair; use errors.Is.
var (
	ErrBadMagic = errors.New("snapshot: bad magic (not a gallery snapshot)")
	ErrVersion  = errors.New("snapshot: unsupported format version")
	ErrCorrupt  = errors.New("snapshot: corrupt payload")
)

// descKinds fixes the on-disk descriptor family order.
var descKinds = []pipeline.DescriptorKind{pipeline.SIFT, pipeline.SURF, pipeline.ORB}

// Meta records the provenance of a persisted gallery: the dataset it
// was built from and the render parameters. Loaders validate it against
// their own configuration (Meta.Check) so a mismatched snapshot fails
// loudly instead of producing silently wrong predictions.
type Meta struct {
	Dataset string // dataset identifier, e.g. "sns1"
	Size    int    // render size in pixels
	Seed    uint64 // render seed
}

// Check compares this (loaded) provenance against the caller's
// expectation. Every field is compared — there are no skip sentinels,
// because 0 is a seed a user can legitimately pass — so callers must
// fill the complete expected Meta.
func (m Meta) Check(want Meta) error {
	if m.Dataset != want.Dataset {
		return fmt.Errorf("snapshot: gallery was built from dataset %q, this run needs %q", m.Dataset, want.Dataset)
	}
	if m.Size != want.Size {
		return fmt.Errorf("snapshot: gallery was rendered at size %d, this run needs %d", m.Size, want.Size)
	}
	if m.Seed != want.Seed {
		return fmt.Errorf("snapshot: gallery was rendered with seed %d, this run needs %d", m.Seed, want.Seed)
	}
	return nil
}

// Snapshot is a named, provenance-stamped prepared gallery — the unit
// the codec reads and writes.
type Snapshot struct {
	Name    string
	Meta    Meta
	Gallery *pipeline.Gallery
}

// Write serializes the snapshot in the current (v2) format. The gallery
// must be quiescent (no concurrent extraction); the binaries save only
// after preparation completes.
func Write(w io.Writer, s *Snapshot) error { return writeV2(w, s) }

// WriteV1 serializes the snapshot in the legacy v1 format — the
// single-stream layout readers predating Map understand. New snapshots
// should use Write; this exists so back-compat fixtures can still be
// produced.
func WriteV1(w io.Writer, s *Snapshot) error {
	g := s.Gallery
	var e enc
	e.str(s.Name)
	e.str(s.Meta.Dataset)
	e.i64(int64(s.Meta.Size))
	e.u64(s.Meta.Seed)
	e.u32(uint32(len(g.Views)))
	for i := range g.Views {
		encodeViewV1(&e, &g.Views[i])
	}
	// The flat indexes are not serialized: NewDescriptorIndex is a pure,
	// deterministic function of the per-view packed sets already stored
	// above, so persisting them would double the descriptor bytes on
	// disk. Only the prepared kinds are recorded; Read rebuilds each
	// index bit-identically from the restored sets.
	encodeIndexKinds(&e, g)

	var hdr [12]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], VersionV1)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	if _, err := w.Write(e.b); err != nil {
		return fmt.Errorf("snapshot: write payload: %w", err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(e.b))
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("snapshot: write checksum: %w", err)
	}
	return nil
}

// encodeIndexKinds records which flat-index kinds the gallery has
// prepared (shared tail of both format versions).
func encodeIndexKinds(e *enc, g *pipeline.Gallery) {
	idx := g.Indexes()
	present := make([]pipeline.DescriptorKind, 0, len(descKinds))
	for _, k := range descKinds {
		if idx[k] != nil {
			present = append(present, k)
		}
	}
	e.u8(uint8(len(present)))
	for _, k := range present {
		e.u8(uint8(k))
	}
}

// Read deserializes a snapshot of either format version into heap
// memory. For the v2 zero-copy path use Map.
func Read(r io.Reader) (*Snapshot, error) {
	if err := fault.Check(fault.SnapshotRead); err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	if len(raw) < 16 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any snapshot", ErrCorrupt, len(raw))
	}
	if [8]byte(raw[:8]) != magic {
		return nil, ErrBadMagic
	}
	switch v := binary.LittleEndian.Uint32(raw[8:12]); v {
	case VersionV1:
		return readV1(raw)
	case Version:
		// Heap loads alias the read buffer too (one backing array, no
		// per-field copies); it just lives on the GC heap instead of a
		// mapping.
		return readV2(ensureAligned8(raw), true)
	default:
		return nil, fmt.Errorf("%w: file version %d, supported versions %d and %d", ErrVersion, v, VersionV1, Version)
	}
}

// minViewEncV1 is the smallest on-disk footprint of one v1 view
// (sample ids, image flag, Hu block, histogram flag, descriptor
// count); the view count is bounded against it before allocation.
const minViewEncV1 = 3*8 + 1 + 7*8 + 1 + 1

// readV1 decodes the legacy single-stream format.
func readV1(raw []byte) (*Snapshot, error) {
	payload := raw[12 : len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: checksum %08x, recorded %08x", ErrCorrupt, got, want)
	}

	d := &dec{b: payload}
	out := &Snapshot{}
	out.Name = d.str()
	out.Meta.Dataset = d.str()
	out.Meta.Size = int(d.i64())
	out.Meta.Seed = d.u64()
	nv := d.count(int(d.u32()), minViewEncV1)
	var views []pipeline.View
	if d.err == nil {
		views = make([]pipeline.View, nv)
		for i := range views {
			decodeViewV1(d, &views[i])
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
	idx, err := buildIndexes(views, indexKinds, nil)
	if err != nil {
		return nil, err
	}
	out.Gallery = pipeline.RestoreGallery(views, idx)
	return out, nil
}

// decodeIndexKinds reads the recorded flat-index kind list.
func decodeIndexKinds(d *dec) []pipeline.DescriptorKind {
	var kinds []pipeline.DescriptorKind
	for n := int(d.u8()); n > 0 && d.err == nil; n-- {
		kinds = append(kinds, pipeline.DescriptorKind(d.u8()))
	}
	return kinds
}

// buildIndexes rebuilds the recorded flat indexes from the restored
// sets — a deterministic reconstruction of exactly what the saved
// gallery held. Every view's set of a recorded kind must be present and
// shape-consistent with the others: an inconsistency cannot have
// existed at save time, so it marks a corrupt (or crafted) file, which
// must surface as ErrCorrupt here rather than as a panic inside the
// index builder or an out-of-bounds scan at query time. regions, when
// non-nil, supplies the concatenated blob storage the v2 loader aliases
// the indexes onto.
func buildIndexes(views []pipeline.View, kinds []pipeline.DescriptorKind, regions map[pipeline.DescriptorKind]indexRegion) (map[pipeline.DescriptorKind]*pipeline.DescriptorIndex, error) {
	idx := map[pipeline.DescriptorKind]*pipeline.DescriptorIndex{}
	for _, k := range kinds {
		sets := make([]*features.Set, len(views))
		var (
			have   bool
			binary bool
			dim    int
			wpr    int
		)
		for i := range views {
			s := views[i].Desc[k]
			if s == nil {
				return nil, fmt.Errorf("%w: index kind %s recorded but view %d has no %s descriptors", ErrCorrupt, k, i, k)
			}
			sets[i] = s
			if s.Len() == 0 {
				continue
			}
			if !have {
				have, binary, dim, wpr = true, s.Binary, s.Dim, s.WordsPerRow
				continue
			}
			if s.Binary != binary || s.Dim != dim || s.WordsPerRow != wpr {
				return nil, fmt.Errorf("%w: index kind %s mixes descriptor shapes (view %d)", ErrCorrupt, k, i)
			}
		}
		r := regions[k]
		idx[k] = pipeline.RestoreDescriptorIndex(sets, r.floats, r.words)
	}
	return idx, nil
}

// Save writes the snapshot to path atomically and durably: the bytes
// are flushed to a temp file, fsynced, renamed over path, and the
// parent directory is fsynced so the rename itself survives a crash —
// without the two syncs a post-rename crash can legally surface a
// zero-length or torn file under the final name. No temp file is left
// behind on any error path.
func Save(path string, s *Snapshot) error { return save(path, s, Write) }

// SaveV1 is Save in the legacy v1 format (see WriteV1).
func SaveV1(path string, s *Snapshot) error { return save(path, s, WriteV1) }

func save(path string, s *Snapshot, write func(io.Writer, *Snapshot) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return fmt.Errorf("snapshot: save: %w", err)
	}
	tmp := f.Name()
	if err := write(f, s); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// Flush file data before the rename: rename-then-crash must never
	// publish a name whose content is still in page cache only.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("snapshot: save: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: save: %w", err)
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: save: %w", err)
	}
	// Durably record the rename in the directory itself.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("snapshot: save: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry is on disk.
// Windows has no directory fsync (and NTFS journals the rename); the
// call is skipped there rather than failing every Save.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads the snapshot at path into heap memory.
func Load(path string) (*Snapshot, error) {
	loadMetrics()
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: load: %w", err)
	}
	defer f.Close()
	snap, err := Read(f)
	if err == nil {
		recordLoad(loadObs.load, start)
	}
	return snap, err
}

// --- view encoding (v1) ---

func encodeViewV1(e *enc, v *pipeline.View) {
	e.i64(int64(v.Sample.Class))
	e.i64(int64(v.Sample.Model))
	e.i64(int64(v.Sample.View))
	if img := v.Sample.Image; img != nil {
		e.u8(1)
		e.u32(uint32(img.W))
		e.u32(uint32(img.H))
		e.bytes(img.Pix)
	} else {
		e.u8(0)
	}
	for _, h := range v.Hu {
		e.f64(h)
	}
	if h := v.Hist; h != nil {
		e.u8(1)
		e.u32(uint32(h.Bins))
		e.f64s(h.Counts)
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
		encodeSetV1(e, v.Desc[k])
	}
}

// maxImageSide bounds a decoded view image's width and height. The
// gallery renders are small (tens to hundreds of pixels); the bound
// exists so a crafted width/height pair cannot overflow the 3*w*h pixel
// arithmetic and smuggle in an Image header whose dimensions exceed its
// pixel storage (an out-of-bounds read at query time). It is sized so
// 3*maxImageSide² still fits a 32-bit int — overflow must be impossible
// on every GOARCH, not just 64-bit ones.
const maxImageSide = 1 << 14

func decodeViewV1(d *dec, v *pipeline.View) {
	v.Sample.Class = synth.Class(d.i64())
	v.Sample.Model = int(d.i64())
	v.Sample.View = int(d.i64())
	if d.u8() == 1 {
		w, h := int(d.u32()), int(d.u32())
		pix := d.bytes()
		if d.err == nil {
			if img := restoreImage(d, w, h, pix); img != nil {
				v.Sample.Image = img
			} else {
				return
			}
		}
	}
	for i := range v.Hu {
		v.Hu[i] = d.f64()
	}
	if d.u8() == 1 {
		bins := int(d.u32())
		counts := d.f64s()
		if d.err == nil {
			if h := restoreHist(d, bins, counts); h != nil {
				v.Hist = h
			} else {
				return
			}
		}
	}
	v.Desc = map[pipeline.DescriptorKind]*features.Set{}
	for n := int(d.u8()); n > 0 && d.err == nil; n-- {
		k := pipeline.DescriptorKind(d.u8())
		if s := decodeSetV1(d); d.err == nil {
			v.Desc[k] = s
		}
	}
}

// restoreImage validates decoded image dimensions against their pixel
// payload (shared by both format versions) and assembles the image.
// It fails the decoder and returns nil on mismatch.
func restoreImage(d *dec, w, h int, pix []byte) *imaging.Image {
	if w <= 0 || h <= 0 || w > maxImageSide || h > maxImageSide || len(pix) != 3*w*h {
		d.fail("image %dx%d with %d pixel bytes", w, h, len(pix))
		return nil
	}
	return &imaging.Image{W: w, H: h, Pix: pix}
}

// restoreHist validates a decoded histogram shape (shared by both
// format versions).
func restoreHist(d *dec, bins int, counts []float64) *histogram.Hist {
	if bins < 1 || bins > 256 || len(counts) != bins*bins*bins {
		d.fail("histogram bins %d with %d cells", bins, len(counts))
		return nil
	}
	return &histogram.Hist{Bins: bins, Counts: counts}
}

// --- descriptor set encoding (v1) ---

func b2u8(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

// keypointEnc is the fixed on-disk size of one keypoint (5 float32
// fields plus the octave int64).
const keypointEnc = 5*4 + 8

func encodeSetV1(e *enc, s *features.Set) {
	// The representation flag disambiguates empty sets: an empty binary
	// set and an empty float set have identical (zero) widths but must
	// restore to their original representation. The row count is
	// stored twice, as the keypoint count and as the matrix's.
	e.u8(b2u8(s.Binary))
	e.u32(uint32(len(s.Keypoints)))
	encodeKeypoints(e, s.Keypoints)
	e.u32(uint32(s.Len()))
	e.u32(uint32(s.Dim))
	e.u32(uint32(s.RowBytes))
	e.u32(uint32(s.WordsPerRow))
	e.f32s(s.Floats)
	e.f32s(rowNorms(s))
	e.u64s(s.Words)
}

func encodeKeypoints(e *enc, kps []features.Keypoint) {
	for _, kp := range kps {
		e.f32(kp.X)
		e.f32(kp.Y)
		e.f32(kp.Size)
		e.f32(kp.Angle)
		e.f32(kp.Response)
		e.i64(int64(kp.Octave))
	}
}

// decodeKeypoints length-bounds and decodes a keypoint block (shared
// by both format versions). The whole block is taken in one bounds
// check and decoded field-wise off it — keypoints are the largest
// structure-stream item, so this loop is the mapped load's hot path —
// and the slice comes off the restore slab when one is supplied.
// Empty decodes as nil for exact round trips.
func decodeKeypoints(d *dec, a *features.RestoreAlloc) []features.Keypoint {
	nk := d.count(int(d.u32()), keypointEnc)
	if d.err != nil || nk == 0 {
		return nil
	}
	raw := d.take(nk * keypointEnc)
	if raw == nil {
		return nil
	}
	var kps []features.Keypoint
	if a != nil {
		kps = a.Keypoints(nk)
	} else {
		kps = make([]features.Keypoint, nk)
	}
	for i := range kps {
		f := raw[i*keypointEnc : (i+1)*keypointEnc]
		kps[i].X = math.Float32frombits(binary.LittleEndian.Uint32(f))
		kps[i].Y = math.Float32frombits(binary.LittleEndian.Uint32(f[4:]))
		kps[i].Size = math.Float32frombits(binary.LittleEndian.Uint32(f[8:]))
		kps[i].Angle = math.Float32frombits(binary.LittleEndian.Uint32(f[12:]))
		kps[i].Response = math.Float32frombits(binary.LittleEndian.Uint32(f[16:]))
		kps[i].Octave = int(int64(binary.LittleEndian.Uint64(f[20:])))
	}
	return kps
}

// rowNorms returns the squared L2 norm of every float row: the norm
// block both formats store after the rows. Readers check its length and
// drop the values, so the writers compute it from the rows instead of
// carrying it on every set.
func rowNorms(s *features.Set) []float32 {
	if s.Dim == 0 {
		return nil
	}
	out := make([]float32, s.Len())
	for i := range out {
		out[i] = features.L2Squared(s.FloatRow(i), nil)
	}
	return out
}

// checkSetShape validates a decoded set's matrix against its recorded
// representation and keypoints; n is the stored row count and norms
// the length of the stored norm block. All arithmetic is
// division-based: the counts come off the wire as raw u32s, so
// products like n*Dim could overflow and alias a crafted length.
// Returns false (failing the decoder) on any mismatch.
func checkSetShape(d *dec, s *features.Set, n, norms int) bool {
	ok := n == s.Len()
	if s.Binary {
		ok = ok && s.Dim == 0 && len(s.Floats) == 0 && norms == 0
		ok = ok && (s.RowBytes > 0) == (s.WordsPerRow > 0)
		ok = ok && s.WordsPerRow == (s.RowBytes+7)/8
		if s.WordsPerRow == 0 {
			ok = ok && len(s.Words) == 0
		} else {
			ok = ok && len(s.Words)%s.WordsPerRow == 0 && len(s.Words)/s.WordsPerRow == n
		}
	} else {
		ok = ok && s.RowBytes == 0 && s.WordsPerRow == 0 && len(s.Words) == 0
		if s.Dim == 0 {
			ok = ok && len(s.Floats) == 0 && norms == 0
		} else {
			ok = ok && len(s.Floats)%s.Dim == 0 && len(s.Floats)/s.Dim == n && norms == n
		}
	}
	if !ok {
		d.fail("descriptor matrix shape mismatch (N=%d dim=%d rowBytes=%d wpr=%d)", n, s.Dim, s.RowBytes, s.WordsPerRow)
	}
	return ok
}

func decodeSetV1(d *dec) *features.Set {
	s := &features.Set{Binary: d.u8() == 1}
	s.Keypoints = decodeKeypoints(d, nil)
	if d.err != nil {
		return nil
	}
	n := int(d.u32())
	s.Dim = int(d.u32())
	s.RowBytes = int(d.u32())
	s.WordsPerRow = int(d.u32())
	s.Floats = d.f32s()
	norms := d.count(int(d.u32()), 4)
	d.take(norms * 4)
	s.Words = d.u64s()
	if d.err != nil || !checkSetShape(d, s, n, norms) {
		return nil
	}
	return s
}

// --- primitive little-endian encoder/decoder ---

type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) f32(v float32) {
	e.u32(math.Float32bits(v))
}
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.b = append(e.b, v...)
}
func (e *enc) f32s(v []float32) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u32(math.Float32bits(x))
	}
}
func (e *enc) f64s(v []float64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u64(math.Float64bits(x))
	}
}
func (e *enc) u64s(v []uint64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u64(x)
	}
}

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// count validates an element count read off the wire against the bytes
// that remain: a valid stream must still carry at least min encoded
// bytes per element, so a larger count is corrupt — and must fail here,
// BEFORE it reaches a make(), not after a crafted multi-GB allocation.
func (d *dec) count(n, min int) int {
	if d.err != nil {
		return 0
	}
	if n < 0 || n > (len(d.b)-d.off)/min {
		d.fail("count %d exceeds remaining payload (%d bytes)", n, len(d.b)-d.off)
		return 0
	}
	return n
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail("truncated at offset %d (need %d bytes, have %d)", d.off, n, len(d.b)-d.off)
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *dec) u8() uint8 {
	v := d.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}
func (d *dec) u32() uint32 {
	v := d.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}
func (d *dec) u64() uint64 {
	v := d.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}
func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f32() float32 { return math.Float32frombits(d.u32()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) str() string {
	n := int(d.u32())
	return string(d.take(n))
}
func (d *dec) bytes() []byte {
	n := int(d.u32())
	if n == 0 {
		return nil // nil and empty encode identically; decode to nil for exact round trips
	}
	v := d.take(n)
	if v == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, v)
	return out
}
func (d *dec) f32s() []float32 {
	// count first: on 32-bit targets n*4 can overflow int and slip a
	// huge n past take's byte bound into the make below.
	n := d.count(int(d.u32()), 4)
	if n == 0 {
		return nil // nil and empty encode identically; decode to nil for exact round trips
	}
	raw := d.take(n * 4)
	if raw == nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out
}
func (d *dec) f64s() []float64 {
	n := d.count(int(d.u32()), 8) // pre-bounds n*8 against 32-bit overflow
	if n == 0 {
		return nil // nil and empty encode identically; decode to nil for exact round trips
	}
	raw := d.take(n * 8)
	if raw == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out
}
func (d *dec) u64s() []uint64 {
	n := d.count(int(d.u32()), 8) // pre-bounds n*8 against 32-bit overflow
	if n == 0 {
		return nil // nil and empty encode identically; decode to nil for exact round trips
	}
	raw := d.take(n * 8)
	if raw == nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	return out
}
