package pipeline

import (
	"math/rand"
	"reflect"
	"testing"

	"snmatch/internal/features"
)

// concatSets builds n random sets whose matrices are carved out of one
// shared backing array — the snapshot v2 blob layout — and returns the
// sets plus the concatenated storage.
func concatSets(rng *rand.Rand, n, dim int, binary bool) ([]*features.Set, []float32, []uint64) {
	counts := make([]int, n)
	total := 0
	for i := range counts {
		if rng.Intn(5) == 0 {
			continue // empty set: contributes an empty row range
		}
		counts[i] = 2 + rng.Intn(6)
		total += counts[i]
	}
	wpr := (dim + 7) / 8
	var floats []float32
	var words []uint64
	if binary {
		words = make([]uint64, total*wpr)
		for i := range words {
			words[i] = rng.Uint64()
		}
	} else {
		floats = make([]float32, total*dim)
		for i := range floats {
			floats[i] = rng.Float32()*2 - 1
		}
	}
	sets := make([]*features.Set, n)
	off := 0
	for i, c := range counts {
		s := &features.Set{Keypoints: make([]features.Keypoint, c), Binary: binary}
		if c > 0 && binary {
			s.RowBytes = dim
			s.WordsPerRow = wpr
			s.Words = words[off*wpr : (off+c)*wpr]
		} else if c > 0 {
			s.Dim = dim
			s.Floats = floats[off*dim : (off+c)*dim]
		}
		sets[i] = s
		off += c
	}
	return sets, floats, words
}

// TestRestoreDescriptorIndexBitIdentical pins the alias-aware rebuild
// against NewDescriptorIndex: same Starts, same storage bytes — and the
// aliased build really aliases (no copy).
func TestRestoreDescriptorIndexBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		binary := trial%2 == 1
		dim := []int{8, 32, 64, 128}[rng.Intn(4)]
		sets, floats, words := concatSets(rng, 1+rng.Intn(12), dim, binary)
		want := NewDescriptorIndex(sets)
		got := RestoreDescriptorIndex(sets, floats, words)
		if got.Binary != want.Binary || got.NumViews != want.NumViews || got.Dim != want.Dim ||
			got.WordsPerRow != want.WordsPerRow ||
			!reflect.DeepEqual(got.Starts, want.Starts) ||
			!reflect.DeepEqual(got.Floats, want.Floats) ||
			!reflect.DeepEqual(got.Words, want.Words) {
			t.Fatalf("trial %d (binary=%v): restored index differs from rebuilt", trial, binary)
		}
		if want.Len() == 0 {
			continue
		}
		if binary {
			if &got.Words[0] != &words[0] {
				t.Fatalf("trial %d: binary restore copied instead of aliasing", trial)
			}
		} else if &got.Floats[0] != &floats[0] {
			t.Fatalf("trial %d: float restore copied instead of aliasing", trial)
		}
	}
}

// TestRestoreDescriptorIndexFallback pins the degraded path: storage
// that is not the exact concatenation (wrong length, or equal bytes in
// a different backing array) falls back to the copying build and still
// produces the identical index.
func TestRestoreDescriptorIndexFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sets, floats, _ := concatSets(rng, 6, 16, false)
	want := NewDescriptorIndex(sets)

	check := func(label string, got *DescriptorIndex) {
		t.Helper()
		if !reflect.DeepEqual(got.Starts, want.Starts) || !reflect.DeepEqual(got.Floats, want.Floats) {
			t.Fatalf("%s: fallback index differs", label)
		}
	}
	check("nil storage (v1 path)", RestoreDescriptorIndex(sets, nil, nil))
	check("short storage", RestoreDescriptorIndex(sets, floats[:len(floats)-1], nil))
	// Equal bytes, different backing array: must be detected by pointer,
	// not value, and must still copy-build correctly.
	clone := append([]float32(nil), floats...)
	got := RestoreDescriptorIndex(sets, clone, nil)
	check("cloned storage", got)
	if len(got.Floats) > 0 && &got.Floats[0] == &clone[0] {
		t.Fatal("cloned storage was aliased; pointer identity check failed")
	}
}
