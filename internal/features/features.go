// Package features defines the shared keypoint and descriptor types used
// by the detector/descriptor implementations (FAST, BRIEF, ORB, SIFT,
// SURF) and by the matchers.
package features

import (
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

// Set is a collection of keypoints with their descriptors, stored once
// as a flat matrix so the matchers scan contiguous rows. Float
// descriptors are row-major in Floats with stride Dim. Binary
// descriptors are word-packed in Words with stride WordsPerRow: bit i
// of a row is bit i%64 of its word i/64, zero-padded past RowBytes, so
// XOR+popcount over words is the byte-wise Hamming distance. Binary
// records the representation, which an empty set keeps; an empty set
// has zero widths. A set is read concurrently once built.
type Set struct {
	Keypoints []Keypoint
	Binary    bool

	Dim    int // float components per row (0 for binary sets)
	Floats []float32

	RowBytes    int // descriptor width in bytes (0 for float sets)
	WordsPerRow int
	Words       []uint64
}

// NewSet returns a set with room for n descriptors, drawn from the
// arena (a nil arena allocates from the heap): Keypoints is empty with
// capacity n, and the matrix holds n zeroed rows of width float32s, or
// of width bytes packed into words for a binary set. The extractor
// appends one keypoint per row it fills. With n = 0 the set has zero
// widths and no storage.
func NewSet(a *arena.Arena, binary bool, n, width int) *Set {
	s := arena.NewOf[Set](a)
	s.Binary = binary
	if n == 0 {
		return s
	}
	s.Keypoints = arena.Cap[Keypoint](a, n)
	if binary {
		s.RowBytes, s.WordsPerRow = width, (width+7)/8
		s.Words = arena.Slice[uint64](a, n*s.WordsPerRow)
	} else {
		s.Dim = width
		s.Floats = arena.Slice[float32](a, n*width)
	}
	return s
}

// Len returns the number of descriptors in the set.
func (s *Set) Len() int { return len(s.Keypoints) }

// FloatRow returns the i-th float descriptor.
func (s *Set) FloatRow(i int) []float32 { return s.Floats[i*s.Dim : (i+1)*s.Dim] }

// WordRow returns the i-th word-packed binary descriptor.
func (s *Set) WordRow(i int) []uint64 {
	return s.Words[i*s.WordsPerRow : (i+1)*s.WordsPerRow]
}

// RestoreAlloc amortises the restore-side allocations of loading a
// large gallery: pointer-stable chunked slabs for set headers and
// keypoint slices, carved sequentially so restoring N sets costs a
// handful of chunk allocations instead of ~2N small ones. Everything
// carved lives exactly as long as the restored gallery; the zero value
// is ready to use.
type RestoreAlloc struct {
	sets []Set
	kps  []Keypoint
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

// Keypoints carves a keypoint slice of length n.
func (a *RestoreAlloc) Keypoints(n int) []Keypoint { return carve(&a.kps, n, 2048) }

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

// HammingWords returns the number of differing bits between two
// word-packed binary descriptors of equal length.
func HammingWords(a, b []uint64) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] ^ b[i])
	}
	return n
}
