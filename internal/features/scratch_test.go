package features

import (
	"math"
	"testing"

	"snmatch/internal/arena"
)

// TestScratchFloatSetMatchesFresh assembles the same float set through
// a recycled scratch (twice, so spines are reused) and freshly, and
// requires identical packed output.
func TestScratchFloatSetMatchesFresh(t *testing.T) {
	sc := &Scratch{A: arena.New()}
	for round := 0; round < 3; round++ {
		fresh := &Set{}
		pooled := sc.NewFloatSet()
		for i := 0; i < 5+round; i++ {
			kp := Keypoint{X: float32(i), Y: float32(round)}
			row := []float32{float32(i), float32(i) * 2, 0.5}
			fresh.Keypoints = append(fresh.Keypoints, kp)
			fresh.Float = append(fresh.Float, row)
			prow := arena.Slice[float32](sc.A, 3)
			copy(prow, row)
			pooled.Keypoints = append(pooled.Keypoints, kp)
			pooled.Float = append(pooled.Float, prow)
		}
		fresh.Pack()
		sc.Finish(pooled)
		if pooled.IsBinary() || pooled.Packed == nil {
			t.Fatal("pooled float set mis-assembled")
		}
		if pooled.Packed.N != fresh.Packed.N || pooled.Packed.Dim != fresh.Packed.Dim {
			t.Fatalf("packed shape %d/%d, want %d/%d",
				pooled.Packed.N, pooled.Packed.Dim, fresh.Packed.N, fresh.Packed.Dim)
		}
		for i := range fresh.Packed.Floats {
			if math.Float32bits(fresh.Packed.Floats[i]) != math.Float32bits(pooled.Packed.Floats[i]) {
				t.Fatalf("round %d: packed float %d differs", round, i)
			}
		}
		sc.A.Reset()
	}
}

// TestScratchBinarySetContract checks the binary path: non-nil Binary
// on empty sets (the ORB extractor contract) and word-exact packing on
// recycled spines.
func TestScratchBinarySetContract(t *testing.T) {
	sc := &Scratch{A: arena.New()}
	empty := sc.NewBinarySet()
	if empty.Binary == nil || !empty.IsBinary() {
		t.Fatal("recycled binary set lost its non-nil Binary contract")
	}
	sc.Finish(empty)
	sc.A.Reset()

	for round := 0; round < 3; round++ {
		fresh := &Set{Binary: [][]byte{}}
		pooled := sc.NewBinarySet()
		if pooled.Binary == nil {
			t.Fatal("recycled binary set lost its non-nil Binary contract")
		}
		for i := 0; i < 4+round; i++ {
			kp := Keypoint{X: float32(i)}
			row := []byte{byte(i), byte(0xF0 | i), 0x3C}
			fresh.Keypoints = append(fresh.Keypoints, kp)
			fresh.Binary = append(fresh.Binary, row)
			prow := arena.Slice[byte](sc.A, 3)
			copy(prow, row)
			pooled.Keypoints = append(pooled.Keypoints, kp)
			pooled.Binary = append(pooled.Binary, prow)
		}
		fresh.Pack()
		sc.Finish(pooled)
		if !pooled.IsBinary() {
			t.Fatal("pooled binary set mis-assembled")
		}
		if pooled.Packed.WordsPerRow != fresh.Packed.WordsPerRow || pooled.Packed.RowBytes != fresh.Packed.RowBytes {
			t.Fatal("packed binary shape differs")
		}
		for i := range fresh.Packed.Words {
			if fresh.Packed.Words[i] != pooled.Packed.Words[i] {
				t.Fatalf("round %d: packed word %d differs", round, i)
			}
		}
		sc.A.Reset()
	}
}

// TestPackInNilArenaIsPack pins the nil-arena fallback.
func TestPackInNilArenaIsPack(t *testing.T) {
	s := &Set{Keypoints: []Keypoint{{}}, Float: [][]float32{{1, 2, 3}}}
	s.PackIn(nil)
	r := (&Set{Keypoints: []Keypoint{{}}, Float: [][]float32{{1, 2, 3}}}).Pack()
	if s.Packed.N != r.Packed.N || s.Packed.Dim != r.Packed.Dim {
		t.Fatal("PackIn(nil) differs from Pack")
	}
	for i := range r.Packed.Floats {
		if s.Packed.Floats[i] != r.Packed.Floats[i] {
			t.Fatal("PackIn(nil) floats differ from Pack")
		}
	}
}
