package features

import (
	"math"
	"testing"
	"testing/quick"
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
	a := []byte{0b10101010, 0xff}
	b := []byte{0b01010101, 0xff}
	if got := Hamming(a, b); got != 8 {
		t.Errorf("Hamming = %d, want 8", got)
	}
	if got := Hamming(a, a); got != 0 {
		t.Errorf("self Hamming = %d", got)
	}
	if got := Hamming([]byte{0}, []byte{0xff}); got != 8 {
		t.Errorf("full Hamming = %d", got)
	}
}

func TestHammingMatchesNaive(t *testing.T) {
	naive := func(a, b []byte) int {
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
	f := func(a, b [8]byte) bool {
		return Hamming(a[:], b[:]) == naive(a[:], b[:])
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

func TestPackFloat(t *testing.T) {
	s := &Set{
		Keypoints: make([]Keypoint, 3),
		Float:     [][]float32{{1, 2, 3}, {4, 5, 6}, {-1, 0, 0.5}},
	}
	s.Pack()
	p := s.Packed
	if p == nil || p.N != 3 || p.Dim != 3 {
		t.Fatalf("packed shape = %+v", p)
	}
	for i, row := range s.Float {
		got := p.FloatRow(i)
		for j := range row {
			if got[j] != row[j] {
				t.Errorf("row %d col %d: %v != %v", i, j, got[j], row[j])
			}
		}
	}
	// Idempotent.
	before := s.Packed
	if s.Pack(); s.Packed != before {
		t.Error("Pack rebuilt an existing packed layout")
	}
}

func TestPackBinaryWordsMatchHamming(t *testing.T) {
	// Byte lengths exercising zero-padded tail words.
	for _, nb := range []int{1, 7, 8, 9, 16, 32, 33} {
		rows := make([][]byte, 6)
		seed := uint32(2891 + nb)
		for i := range rows {
			row := make([]byte, nb)
			for j := range row {
				seed = seed*1664525 + 1013904223
				row[j] = byte(seed >> 24)
			}
			rows[i] = row
		}
		s := &Set{Keypoints: make([]Keypoint, len(rows)), Binary: rows}
		s.Pack()
		p := s.Packed
		if p.WordsPerRow != (nb+7)/8 {
			t.Fatalf("nb=%d: wordsPerRow = %d", nb, p.WordsPerRow)
		}
		for i := range rows {
			for j := range rows {
				want := Hamming(rows[i], rows[j])
				got := HammingWords(p.WordRow(i), p.WordRow(j))
				if got != want {
					t.Errorf("nb=%d rows %d,%d: HammingWords=%d Hamming=%d", nb, i, j, got, want)
				}
			}
		}
	}
}

func TestPackEmptySets(t *testing.T) {
	for _, s := range []*Set{
		{},
		{Binary: [][]byte{}},
		{Float: [][]float32{}},
	} {
		s.Pack()
		if s.Packed == nil || s.Packed.N != 0 {
			t.Errorf("empty pack = %+v", s.Packed)
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
	s := &Set{Keypoints: []Keypoint{{X: 1}}, Binary: [][]byte{{1}}}
	if s.Len() != 1 || !s.IsBinary() {
		t.Error("binary set accessors wrong")
	}
	f := &Set{Keypoints: []Keypoint{{X: 1}}, Float: [][]float32{{1}}}
	if f.Len() != 1 || f.IsBinary() {
		t.Error("float set accessors wrong")
	}
}
