// Package features defines the shared keypoint and descriptor types used
// by the detector/descriptor implementations (FAST, BRIEF, ORB, SIFT,
// SURF) and by the matchers.
package features

import (
	"encoding/binary"
	"math"
	"math/bits"

	"snmatch/internal/arena"
)

// Keypoint is an interest point in image coordinates of the original
// (level-0) image.
type Keypoint struct {
	X, Y     float32
	Size     float32 // diameter of the meaningful neighbourhood
	Angle    float32 // orientation in radians in [0, 2pi), or -1 if undefined
	Response float32 // detector response used for ranking
	Octave   int     // pyramid level the point was detected on
}

// Packed is the flat, matcher-friendly layout of a descriptor set: float
// descriptors live in one contiguous row-major matrix, binary
// descriptors as word-packed rows so Hamming distance runs on 64-bit
// popcounts instead of per-byte lookups. It is built once (at
// extraction time, or explicitly via Set.Pack) and read concurrently
// afterwards.
type Packed struct {
	N   int // number of descriptors (rows)
	Dim int // float components per row (0 for binary sets)

	// Float layout: row i occupies Floats[i*Dim : (i+1)*Dim].
	Floats []float32

	// Binary layout: row i occupies Words[i*WordsPerRow : (i+1)*WordsPerRow],
	// little-endian packed from the byte descriptor and zero-padded, so
	// XOR+popcount over words equals the byte-wise Hamming distance.
	// RowBytes is the original byte width of a binary descriptor (0 for
	// float sets); it is what UnpackWords needs to strip the zero padding
	// when a packed block is restored from a snapshot.
	WordsPerRow int
	RowBytes    int
	Words       []uint64

	// Borrowed marks Floats/Words as aliases of storage the set
	// does not own — a memory-mapped snapshot blob. Borrowed storage is
	// read-only and must never be recycled through an arena or pool, and
	// it dies with its mapping, not with the set; PackIn is already a
	// no-op on restored sets, so the flag exists for any future code
	// that would otherwise reclaim or rewrite packed matrices in place.
	Borrowed bool
}

// FloatRow returns the i-th packed float descriptor.
func (p *Packed) FloatRow(i int) []float32 { return p.Floats[i*p.Dim : (i+1)*p.Dim] }

// WordRow returns the i-th word-packed binary descriptor.
func (p *Packed) WordRow(i int) []uint64 {
	return p.Words[i*p.WordsPerRow : (i+1)*p.WordsPerRow]
}

// Set is a collection of keypoints with their descriptors. Exactly one of
// Float and Binary is non-nil for non-empty sets. Packed is the flat
// mirror of the same descriptors; extractors build it before returning,
// and Pack (re)builds it for hand-assembled sets.
type Set struct {
	Keypoints []Keypoint
	Float     [][]float32
	Binary    [][]byte
	Packed    *Packed
}

// Len returns the number of descriptors in the set.
func (s *Set) Len() int { return len(s.Keypoints) }

// IsBinary reports whether the set stores binary descriptors.
func (s *Set) IsBinary() bool { return s.Binary != nil }

// Pack builds the flat descriptor layout. It is idempotent and must be
// called before the set is shared across goroutines (extractors already
// do); matchers fall back to the row-slice layout when Packed is nil.
func (s *Set) Pack() *Set { return s.PackIn(nil) }

// PackIn is Pack with the packed header and matrices drawn from the
// arena — the query-path form whose product lives only until the
// extraction context resets. A nil arena is exactly Pack.
func (s *Set) PackIn(a *arena.Arena) *Set {
	if s.Packed != nil {
		return s
	}
	p := arena.NewOf[Packed](a)
	p.N = s.Len()
	if s.IsBinary() {
		nb := 0
		if len(s.Binary) > 0 {
			nb = len(s.Binary[0])
		}
		p.RowBytes = nb
		p.WordsPerRow = (nb + 7) / 8
		p.Words = arena.Slice[uint64](a, p.N*p.WordsPerRow)
		for i, row := range s.Binary {
			packWords(p.Words[i*p.WordsPerRow:(i+1)*p.WordsPerRow], row)
		}
	} else if len(s.Float) > 0 {
		p.Dim = len(s.Float[0])
		p.Floats = arena.Slice[float32](a, p.N*p.Dim)
		for i, row := range s.Float {
			copy(p.Floats[i*p.Dim:], row)
		}
	}
	s.Packed = p
	return s
}

// packWords packs a byte descriptor little-endian into 64-bit words,
// zero-padding the tail.
func packWords(dst []uint64, src []byte) {
	for w := range dst {
		var v uint64
		base := w * 8
		for b := 0; b < 8 && base+b < len(src); b++ {
			v |= uint64(src[base+b]) << (8 * b)
		}
		dst[w] = v
	}
}

// UnpackWords is the inverse of the word packing performed by Pack: it
// writes len(dst) bytes of the little-endian packed row back out,
// discarding the zero padding beyond the original byte width. Whole
// words go out as single 8-byte stores — this runs once per row when a
// snapshot restores a binary gallery, so it is load-path hot.
func UnpackWords(dst []byte, src []uint64) {
	for len(dst) >= 8 && len(src) > 0 {
		binary.LittleEndian.PutUint64(dst, src[0])
		dst, src = dst[8:], src[1:]
	}
	if len(dst) > 0 && len(src) > 0 {
		w := src[0]
		for i := range dst {
			dst[i] = byte(w >> (8 * i))
		}
	}
}

// RestoreSet rebuilds a Set from a keypoint slice and a packed
// descriptor block, the two pieces a gallery snapshot stores. Float rows
// alias the packed matrix (so no storage is duplicated); binary rows are
// unpacked from the words using the recorded RowBytes. The result is
// interchangeable with the extractor-produced original: Pack is a no-op
// on it and every matcher path sees bit-identical descriptors.
func RestoreSet(kps []Keypoint, p *Packed) *Set {
	return RestoreSetIn(nil, kps, p)
}

// RestoreAlloc amortises the restore-side allocations of loading a
// large gallery: pointer-stable chunked slabs for set headers, keypoint
// slices, row tables and unpacked binary bytes, carved sequentially so
// restoring N sets costs a handful of chunk allocations instead of
// ~5N small ones. Everything carved lives exactly as long as the
// restored gallery; the zero value is ready to use, and a nil
// *RestoreAlloc degrades RestoreSetIn to plain RestoreSet.
type RestoreAlloc struct {
	sets   []Set
	packed []Packed
	kps    []Keypoint
	frows  [][]float32
	brows  [][]byte
	bytes  []byte
}

// carve takes n items off the slab, topping it up with chunk-sized
// blocks (chunk is per element type, chosen to keep blocks in the tens
// of kilobytes — oversizing just zeroes memory the restore never
// touches). The full slice expression keeps a stray append from
// bleeding into the next carve's storage; chunks are never grown in
// place, so previously carved slices (and pointers into them) stay
// valid.
func carve[T any](buf *[]T, n, chunk int) []T {
	if n > len(*buf) {
		if n > chunk {
			chunk = n
		}
		*buf = make([]T, chunk)
	}
	out := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return out
}

// Set carves one zeroed Set header.
func (a *RestoreAlloc) Set() *Set { return &carve(&a.sets, 1, 256)[0] }

// Packed carves one zeroed Packed header.
func (a *RestoreAlloc) Packed() *Packed { return &carve(&a.packed, 1, 256)[0] }

// Keypoints carves a keypoint slice of length n.
func (a *RestoreAlloc) Keypoints(n int) []Keypoint { return carve(&a.kps, n, 2048) }

// RestoreSetIn is RestoreSet drawing every allocation from the slab
// allocator (nil a = plain RestoreSet). Output is value-identical.
func RestoreSetIn(a *RestoreAlloc, kps []Keypoint, p *Packed) *Set {
	var s *Set
	if a != nil {
		s = a.Set()
	} else {
		s = &Set{}
	}
	s.Keypoints = kps
	s.Packed = p
	if p == nil || p.N == 0 {
		if p != nil && (p.RowBytes > 0 || p.Words != nil) {
			s.Binary = emptyByteRows // binary extractors return a non-nil empty row set
		}
		return s
	}
	if p.WordsPerRow > 0 || p.RowBytes > 0 {
		// One backing array for all rows (full slice expressions keep a
		// stray append from bleeding across row boundaries): restoring a
		// set costs one row-table and one backing carve, not N row makes.
		var backing []byte
		if a != nil {
			s.Binary = carve(&a.brows, p.N, 2048)
			backing = carve(&a.bytes, p.N*p.RowBytes, 1<<16)
		} else {
			s.Binary = make([][]byte, p.N)
			backing = make([]byte, p.N*p.RowBytes)
		}
		for i := 0; i < p.N; i++ {
			row := backing[i*p.RowBytes : (i+1)*p.RowBytes : (i+1)*p.RowBytes]
			UnpackWords(row, p.WordRow(i))
			s.Binary[i] = row
		}
		return s
	}
	if a != nil {
		s.Float = carve(&a.frows, p.N, 2048)
	} else {
		s.Float = make([][]float32, p.N)
	}
	for i := 0; i < p.N; i++ {
		s.Float[i] = p.FloatRow(i)
	}
	return s
}

// L2Squared returns the squared Euclidean distance between two float
// descriptors, accumulating in float32 component order — the exact
// arithmetic L2 performs before its square root. A nil b computes the
// squared norm of a.
func L2Squared(a, b []float32) float32 {
	var sum float32
	if b == nil {
		for _, v := range a {
			sum += v * v
		}
		return sum
	}
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// L2 returns the Euclidean distance between two float descriptors.
func L2(a, b []float32) float32 {
	return float32(math.Sqrt(float64(L2Squared(a, b))))
}

// Hamming returns the number of differing bits between two binary
// descriptors of equal length. It stays byte-oriented for unpacked
// callers; packed sets should use HammingWords on their word rows.
func Hamming(a, b []byte) int {
	n := 0
	for i := range a {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}

// HammingWords returns the number of differing bits between two
// word-packed binary descriptors of equal length. On rows packed by
// Set.Pack it equals Hamming on the original bytes.
func HammingWords(a, b []uint64) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] ^ b[i])
	}
	return n
}
