package arena

import (
	"math"
	"testing"
)

func TestNilArenaFallsBackToHeap(t *testing.T) {
	s := Slice[float32](nil, 5)
	if len(s) != 5 {
		t.Fatalf("len = %d, want 5", len(s))
	}
	c := Cap[int](nil, 3)
	if len(c) != 0 || cap(c) < 3 {
		t.Fatalf("Cap(nil) = len %d cap %d", len(c), cap(c))
	}
	p := NewOf[struct{ X int }](nil)
	if p == nil || p.X != 0 {
		t.Fatal("NewOf(nil) did not return a zeroed struct")
	}
	var a *Arena
	a.Reset() // must not panic
}

func TestSliceZeroesReusedBuffers(t *testing.T) {
	a := New()
	s := Slice[int32](a, 16)
	for i := range s {
		s[i] = int32(i) + 1
	}
	a.Reset()
	s2 := Slice[int32](a, 16)
	if &s[0] != &s2[0] {
		t.Fatal("expected the reset buffer to be reused")
	}
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %d", i, v)
		}
	}
}

func TestDistinctLoansDoNotAlias(t *testing.T) {
	a := New()
	x := Slice[byte](a, 32)
	y := Slice[byte](a, 32)
	x[0], y[0] = 1, 2
	if &x[0] == &y[0] {
		t.Fatal("two live loans share a buffer")
	}
	a.Reset()
	// After reset both buffers are free again; two new loans must still
	// be distinct.
	x2 := Slice[byte](a, 32)
	y2 := Slice[byte](a, 32)
	if &x2[0] == &y2[0] {
		t.Fatal("two live loans share a buffer after reset")
	}
}

func TestSizeClassPrefersSmallestSufficientBuffer(t *testing.T) {
	a := New()
	big := Slice[float64](a, 1024)
	small := Slice[float64](a, 16)
	a.Reset()
	got := Slice[float64](a, 10)
	if &got[0] == &big[0] {
		t.Fatal("size-class lookup picked the oversized buffer")
	}
	if &got[0] != &small[0] {
		t.Fatal("size-class lookup did not reuse the small-class buffer")
	}
}

func TestCapReusesAndGrowsWithinCapacity(t *testing.T) {
	a := New()
	c := Cap[int](a, 10)
	if len(c) != 0 || cap(c) < 10 {
		t.Fatalf("Cap = len %d cap %d", len(c), cap(c))
	}
	for i := 0; i < 10; i++ {
		c = append(c, i)
	}
	a.Reset()
	c2 := Cap[int](a, 10)
	if &c2[:1][0] != &c[:1][0] {
		t.Fatal("Cap did not reuse the reset buffer")
	}
	// Appends must observe only what they wrote, never stale contents.
	c2 = append(c2, 41, 42)
	if c2[0] != 41 || c2[1] != 42 || len(c2) != 2 {
		t.Fatalf("append over recycled Cap buffer = %v", c2)
	}
}

func TestTypesAreSegregated(t *testing.T) {
	a := New()
	f := Slice[float32](a, 8)
	a.Reset()
	_ = Slice[int32](a, 8) // different type: must not reuse f's storage
	f2 := Slice[float32](a, 8)
	if &f[0] != &f2[0] {
		t.Fatal("same-type loan after reset did not reuse the buffer")
	}
}

func TestFootprintTracksAllocatedCapacity(t *testing.T) {
	var nilArena *Arena
	if nilArena.Footprint() != 0 {
		t.Fatal("nil arena footprint != 0")
	}
	a := New()
	_ = Slice[float64](a, 1000) // class 10: 1024 * 8 bytes
	got := a.Footprint()
	if got != 1024*8 {
		t.Fatalf("footprint after one loan = %d, want %d", got, 1024*8)
	}
	a.Reset()
	_ = Slice[float64](a, 900) // reuses the same buffer: no growth
	if a.Footprint() != got {
		t.Fatalf("footprint grew on reuse: %d -> %d", got, a.Footprint())
	}
	_ = Slice[byte](a, 100) // class 7: 128 bytes, second live loan
	if a.Footprint() != got+128 {
		t.Fatalf("footprint = %d, want %d", a.Footprint(), got+128)
	}
}

func TestWarmArenaDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	a := New()
	shape := func() {
		_ = Slice[float32](a, 512)
		_ = Slice[byte](a, 100)
		_ = Slice[[]float32](a, 9)
		_ = NewOf[[4]int](a)
		a.Reset()
	}
	shape() // warm the free lists
	if n := testing.AllocsPerRun(200, shape); n != 0 {
		t.Fatalf("warm arena allocated %.1f times per run, want 0", n)
	}
}

// TestUnzeroedReusesBuffers: an unzeroed loan draws from the same free
// lists as Slice, and the nil arena falls back to the heap.
func TestUnzeroedReusesBuffers(t *testing.T) {
	if s := Unzeroed(nil, 5); len(s) != 5 {
		t.Fatalf("Unzeroed(nil) len = %d, want 5", len(s))
	}
	a := New()
	s := Slice[float32](a, 100)
	a.Reset()
	u := Unzeroed(a, 90)
	if len(u) != 90 || &u[0] != &s[0] {
		t.Fatal("Unzeroed did not reuse the reset buffer")
	}
}

// TestUnzeroedPoisonedUnderRace: under the race detector every
// unzeroed loan, fresh, reused or from the nil arena, reads as
// all-ones bits, a NaN. CI's race step runs it.
func TestUnzeroedPoisonedUnderRace(t *testing.T) {
	if !raceEnabled {
		t.Skip("unzeroed loans are poisoned only under the race detector")
	}
	a := New()
	for round := 0; round < 2; round++ {
		s := Unzeroed(a, 37)
		for i, v := range append(s, Unzeroed(nil, 5)...) {
			if math.Float32bits(v) != ^uint32(0) || !math.IsNaN(float64(v)) {
				t.Fatalf("round %d: element %d = %#08x, want all ones", round, i, math.Float32bits(v))
			}
		}
		for i := range s {
			s[i] = 1
		}
		a.Reset()
	}
}
