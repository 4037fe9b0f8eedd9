package features

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"snmatch/internal/arena"
)

func TestL2(t *testing.T) {
	a := []float32{0, 0, 0}
	b := []float32{3, 4, 0}
	if got := L2(a, b); got != 5 {
		t.Errorf("L2 = %v, want 5", got)
	}
	if got := L2(b, b); got != 0 {
		t.Errorf("self L2 = %v", got)
	}
}

func TestHamming(t *testing.T) {
	a := []uint64{0b10101010, 0xff}
	b := []uint64{0b01010101, 0xff}
	if got := HammingWords(a, b); got != 8 {
		t.Errorf("HammingWords = %d, want 8", got)
	}
	if got := HammingWords(a, a); got != 0 {
		t.Errorf("self HammingWords = %d", got)
	}
	if got := HammingWords([]uint64{0}, []uint64{^uint64(0)}); got != 64 {
		t.Errorf("full HammingWords = %d", got)
	}
}

func TestHammingMatchesNaive(t *testing.T) {
	naive := func(a, b []uint64) int {
		n := 0
		for i := range a {
			x := a[i] ^ b[i]
			for x != 0 {
				n += int(x & 1)
				x >>= 1
			}
		}
		return n
	}
	f := func(a, b [2]uint64) bool {
		return HammingWords(a[:], b[:]) == naive(a[:], b[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestL2TriangleInequality(t *testing.T) {
	f := func(a, b, c [4]float32) bool {
		for _, v := range append(append(a[:], b[:]...), c[:]...) {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || math.Abs(float64(v)) > 1e10 {
				return true
			}
		}
		ab := float64(L2(a[:], b[:]))
		bc := float64(L2(b[:], c[:]))
		ac := float64(L2(a[:], c[:]))
		return ac <= ab+bc+1e-3*(1+ac)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPackFloat checks the float matrix NewSet lays out: n rows of
// stride Dim, each FloatRow a window of Floats.
func TestPackFloat(t *testing.T) {
	rows := [][]float32{{1, 2, 3}, {4, 5, 6}, {-1, 0, 0.5}}
	s := NewSet(nil, false, len(rows), 3)
	if s.Binary || s.Dim != 3 || len(s.Floats) != 9 || s.RowBytes != 0 || s.WordsPerRow != 0 {
		t.Fatalf("float set shape = %+v", s)
	}
	for i, row := range rows {
		copy(s.FloatRow(i), row)
		s.Keypoints = append(s.Keypoints, Keypoint{})
	}
	for i, row := range rows {
		for j := range row {
			if got := s.Floats[i*s.Dim+j]; got != row[j] {
				t.Errorf("row %d col %d: %v != %v", i, j, got, row[j])
			}
		}
	}
}

// packBytes is the byte-oriented layout of a binary descriptor row:
// byte b holds bits 8b..8b+7, packed little-endian into words.
func packBytes(dst []uint64, src []byte) {
	for b, v := range src {
		dst[b/8] |= uint64(v) << (8 * (b % 8))
	}
}

// TestPackBinaryWordsMatchHamming checks that word rows holding byte
// descriptors little-endian, zero-padded past RowBytes, give the
// byte-wise Hamming distance.
func TestPackBinaryWordsMatchHamming(t *testing.T) {
	hamming := func(a, b []byte) int {
		n := 0
		for i := range a {
			n += bits.OnesCount8(a[i] ^ b[i])
		}
		return n
	}
	// Byte lengths exercising zero-padded tail words.
	for _, nb := range []int{1, 7, 8, 9, 16, 32, 33} {
		rows := make([][]byte, 6)
		seed := uint32(2891 + nb)
		s := NewSet(nil, true, len(rows), nb)
		if s.WordsPerRow != (nb+7)/8 || s.RowBytes != nb {
			t.Fatalf("nb=%d: wordsPerRow = %d, rowBytes = %d", nb, s.WordsPerRow, s.RowBytes)
		}
		for i := range rows {
			row := make([]byte, nb)
			for j := range row {
				seed = seed*1664525 + 1013904223
				row[j] = byte(seed >> 24)
			}
			rows[i] = row
			packBytes(s.WordRow(i), row)
		}
		for i := range rows {
			for j := range rows {
				want := hamming(rows[i], rows[j])
				got := HammingWords(s.WordRow(i), s.WordRow(j))
				if got != want {
					t.Errorf("nb=%d rows %d,%d: HammingWords=%d byte Hamming=%d", nb, i, j, got, want)
				}
			}
		}
	}
}

// TestPackEmptySets checks that an empty set keeps its representation
// and has zero widths and no storage, from the heap or an arena.
func TestPackEmptySets(t *testing.T) {
	for _, a := range []*arena.Arena{nil, arena.New()} {
		for _, binary := range []bool{false, true} {
			s := NewSet(a, binary, 0, 32)
			if s.Len() != 0 || s.Binary != binary || s.Dim != 0 || s.RowBytes != 0 || s.WordsPerRow != 0 ||
				s.Keypoints != nil || s.Floats != nil || s.Words != nil {
				t.Errorf("empty set (binary=%v, arena=%v) = %+v", binary, a != nil, s)
			}
		}
	}
}

func TestL2SquaredMatchesL2(t *testing.T) {
	f := func(a, b [6]float32) bool {
		for _, v := range append(a[:], b[:]...) {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return true
			}
		}
		want := float32(math.Sqrt(float64(L2Squared(a[:], b[:]))))
		return L2(a[:], b[:]) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetAccessors(t *testing.T) {
	s := &Set{Keypoints: []Keypoint{{X: 1}, {X: 2}}, Binary: true, RowBytes: 9, WordsPerRow: 2, Words: []uint64{1, 2, 3, 4}}
	if s.Len() != 2 || !s.Binary || s.WordRow(1)[0] != 3 || s.WordRow(1)[1] != 4 {
		t.Error("binary set accessors wrong")
	}
	f := &Set{Keypoints: []Keypoint{{X: 1}, {X: 2}}, Dim: 2, Floats: []float32{1, 2, 3, 4}}
	if f.Len() != 2 || f.Binary || f.FloatRow(1)[0] != 3 || f.FloatRow(1)[1] != 4 {
		t.Error("float set accessors wrong")
	}
}

// TestScratchFloatSetMatchesFresh fills the same float rows into a set
// from a reused arena (dirty after the first round) and a fresh heap
// set: the arena's rows must start zeroed and the sets must match bit
// for bit.
func TestScratchFloatSetMatchesFresh(t *testing.T) {
	a := arena.New()
	for round := 0; round < 3; round++ {
		n := 5 + round
		fresh, pooled := NewSet(nil, false, n, 3), NewSet(a, false, n, 3)
		for i, v := range pooled.Floats {
			if v != 0 {
				t.Fatalf("round %d: arena row component %d not zeroed", round, i)
			}
		}
		for _, s := range []*Set{fresh, pooled} {
			for i := 0; i < n; i++ {
				copy(s.FloatRow(i), []float32{float32(i), float32(i) * 2, 0.5})
				s.Keypoints = append(s.Keypoints, Keypoint{X: float32(i), Y: float32(round)})
			}
		}
		if pooled.Binary || pooled.Dim != fresh.Dim || len(pooled.Floats) != len(fresh.Floats) {
			t.Fatalf("round %d: pooled shape %+v, want %+v", round, pooled, fresh)
		}
		for i := range fresh.Floats {
			if math.Float32bits(fresh.Floats[i]) != math.Float32bits(pooled.Floats[i]) {
				t.Fatalf("round %d: float %d differs", round, i)
			}
		}
		// Dirty the loaned storage before it returns to the arena.
		for i := range pooled.Floats {
			pooled.Floats[i] = -1
		}
		a.Reset()
	}
}

// TestScratchBinarySetContract checks the binary path on a reused
// arena: word rows start zeroed (BRIEF ORs bits into them), widths are
// the descriptor's, and an empty set stays binary.
func TestScratchBinarySetContract(t *testing.T) {
	a := arena.New()
	for round := 0; round < 3; round++ {
		if empty := NewSet(a, true, 0, 32); !empty.Binary || empty.Len() != 0 {
			t.Fatal("empty arena set lost its binary representation")
		}
		n := 4 + round
		s := NewSet(a, true, n, 3)
		if !s.Binary || s.RowBytes != 3 || s.WordsPerRow != 1 || len(s.Words) != n {
			t.Fatalf("round %d: binary shape %+v", round, s)
		}
		for i, w := range s.Words {
			if w != 0 {
				t.Fatalf("round %d: arena word %d not zeroed", round, i)
			}
			s.Words[i] = ^uint64(0)
		}
		a.Reset()
	}
}
