package histogram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"snmatch/internal/imaging"
)

func uniformImage(c imaging.RGB) *imaging.Image {
	return imaging.NewImageFilled(8, 8, c)
}

func TestComputeCountsAllPixels(t *testing.T) {
	img := uniformImage(imaging.C(10, 20, 30))
	h := Compute(img, 8)
	if got := h.Total(); got != 64 {
		t.Errorf("total = %v, want 64", got)
	}
	// All mass in a single cell.
	nonZero := 0
	for _, v := range h.Counts {
		if v > 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Errorf("non-zero cells = %d, want 1", nonZero)
	}
}

func TestIndexBinEdges(t *testing.T) {
	h := New(8)
	// 256/8 = 32 wide bins: value 31 -> bin 0, 32 -> bin 1, 255 -> bin 7.
	if h.index(imaging.C(31, 0, 0)) != h.index(imaging.C(0, 0, 0)) {
		t.Error("31 and 0 should share a bin")
	}
	if h.index(imaging.C(32, 0, 0)) == h.index(imaging.C(31, 0, 0)) {
		t.Error("32 and 31 should differ")
	}
	if got := h.index(imaging.C(255, 255, 255)); got != len(h.Counts)-1 {
		t.Errorf("white index = %d, want last", got)
	}
}

func TestNormalize(t *testing.T) {
	img := uniformImage(imaging.C(200, 10, 10))
	h := Compute(img, 4).Normalize()
	if math.Abs(h.Total()-1) > 1e-12 {
		t.Errorf("normalised total = %v", h.Total())
	}
	// Normalising an empty histogram is a no-op, not NaN.
	e := New(4).Normalize()
	if e.Total() != 0 {
		t.Errorf("empty normalised total = %v", e.Total())
	}
}

func TestComputeMasked(t *testing.T) {
	img := imaging.NewImageFilled(4, 4, imaging.C(250, 0, 0))
	img.Set(0, 0, imaging.C(0, 250, 0))
	mask := imaging.NewGray(4, 4)
	mask.Set(0, 0, 255)
	h := ComputeMasked(img, mask, 4)
	if h.Total() != 1 {
		t.Fatalf("masked total = %v, want 1", h.Total())
	}
	// The single counted pixel is green.
	if h.Counts[h.index(imaging.C(0, 250, 0))] != 1 {
		t.Error("mask selected the wrong pixel")
	}
	defer func() {
		if recover() == nil {
			t.Error("mask size mismatch did not panic")
		}
	}()
	ComputeMasked(img, imaging.NewGray(2, 2), 4)
}

func TestCorrelationIdenticalAndOpposite(t *testing.T) {
	a := Compute(uniformImage(imaging.C(10, 10, 10)), 4).Normalize()
	if got := Compare(a, a.Clone(), Correlation); math.Abs(got-1) > 1e-9 {
		t.Errorf("self correlation = %v, want 1", got)
	}
	b := Compute(uniformImage(imaging.C(240, 240, 240)), 4).Normalize()
	got := Compare(a, b, Correlation)
	if got >= 1 {
		t.Errorf("different histograms correlation = %v, want < 1", got)
	}
}

func TestChiSquareProperties(t *testing.T) {
	a := Compute(uniformImage(imaging.C(10, 10, 10)), 4).Normalize()
	if got := Compare(a, a.Clone(), ChiSquare); got != 0 {
		t.Errorf("self chi-square = %v, want 0", got)
	}
	b := Compute(uniformImage(imaging.C(240, 10, 10)), 4).Normalize()
	if got := Compare(a, b, ChiSquare); got <= 0 {
		t.Errorf("different chi-square = %v, want > 0", got)
	}
}

func TestIntersectionProperties(t *testing.T) {
	a := Compute(uniformImage(imaging.C(10, 10, 10)), 4).Normalize()
	if got := Compare(a, a.Clone(), Intersection); math.Abs(got-1) > 1e-9 {
		t.Errorf("self intersection = %v, want 1", got)
	}
	b := Compute(uniformImage(imaging.C(240, 10, 10)), 4).Normalize()
	if got := Compare(a, b, Intersection); got != 0 {
		t.Errorf("disjoint intersection = %v, want 0", got)
	}
	// Half-overlapping image.
	img := imaging.NewImageFilled(8, 8, imaging.C(10, 10, 10))
	img.FillRect(imaging.Rect(0, 0, 8, 4), imaging.C(240, 10, 10))
	c := Compute(img, 4).Normalize()
	if got := Compare(a, c, Intersection); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("half intersection = %v, want 0.5", got)
	}
}

func TestHellingerProperties(t *testing.T) {
	a := Compute(uniformImage(imaging.C(10, 10, 10)), 4).Normalize()
	if got := Compare(a, a.Clone(), Hellinger); got > 1e-7 {
		t.Errorf("self hellinger = %v, want 0", got)
	}
	b := Compute(uniformImage(imaging.C(240, 10, 10)), 4).Normalize()
	if got := Compare(a, b, Hellinger); math.Abs(got-1) > 1e-9 {
		t.Errorf("disjoint hellinger = %v, want 1", got)
	}
}

func TestHellingerBoundsProperty(t *testing.T) {
	f := func(vals [16]uint8) bool {
		a, b := New(2), New(2)
		for i := 0; i < 8; i++ {
			a.Counts[i] = float64(vals[i])
			b.Counts[i] = float64(vals[i+8])
		}
		if a.Total() == 0 || b.Total() == 0 {
			return true
		}
		d := Compare(a.Normalize(), b.Normalize(), Hellinger)
		return d >= 0 && d <= 1 && !math.IsNaN(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompareSymmetry(t *testing.T) {
	imgA := imaging.NewImageFilled(8, 8, imaging.C(10, 200, 40))
	imgA.FillRect(imaging.Rect(0, 0, 4, 8), imaging.C(90, 14, 200))
	imgB := imaging.NewImageFilled(8, 8, imaging.C(10, 200, 40))
	a := Compute(imgA, 8).Normalize()
	b := Compute(imgB, 8).Normalize()
	// Correlation, Intersection and Hellinger are symmetric; Chi-square is not.
	for _, m := range []CompareMethod{Correlation, Intersection, Hellinger} {
		d1, d2 := Compare(a, b, m), Compare(b, a, m)
		if math.Abs(d1-d2) > 1e-12 {
			t.Errorf("%v asymmetric: %v vs %v", m, d1, d2)
		}
	}
}

func TestCompareBinMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bin mismatch did not panic")
		}
	}()
	Compare(New(4), New(8), Correlation)
}

func TestDistanceInversion(t *testing.T) {
	// Similarity metrics are inverted, distances pass through.
	if got := Distance(2, Correlation); got != 0.5 {
		t.Errorf("Distance(2, Correlation) = %v", got)
	}
	if got := Distance(0.25, Intersection); got != 4 {
		t.Errorf("Distance(0.25, Intersection) = %v", got)
	}
	if got := Distance(0.7, Hellinger); got != 0.7 {
		t.Errorf("Distance(0.7, Hellinger) = %v", got)
	}
	if got := Distance(3, ChiSquare); got != 3 {
		t.Errorf("Distance(3, ChiSquare) = %v", got)
	}
	// Near-zero similarity must not produce +Inf.
	if got := Distance(0, Correlation); math.IsInf(got, 0) {
		t.Error("Distance(0) overflowed")
	}
}

func TestMethodLabels(t *testing.T) {
	labels := map[CompareMethod]string{
		Correlation:  "Correlation",
		ChiSquare:    "Chi-square",
		Intersection: "Intersection",
		Hellinger:    "Hellinger",
	}
	for m, want := range labels {
		if m.String() != want {
			t.Errorf("%d label = %q", m, m.String())
		}
	}
	if CompareMethod(42).String() != "unknown" {
		t.Error("unknown label wrong")
	}
	if !Correlation.HigherIsBetter() || !Intersection.HigherIsBetter() {
		t.Error("similarity metrics misclassified")
	}
	if ChiSquare.HigherIsBetter() || Hellinger.HigherIsBetter() {
		t.Error("distance metrics misclassified")
	}
}

func TestNewPanicsOnBadBins(t *testing.T) {
	for _, bins := range []int{0, -1, 257} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", bins)
				}
			}()
			New(bins)
		}()
	}
}

func TestSimilarColoursCloserThanDifferent(t *testing.T) {
	// A brown chair-ish palette should be closer to another brown than to
	// a saturated green under every metric's distance ordering.
	brown1 := Compute(uniformImage(imaging.C(120, 80, 40)), 8).Normalize()
	brown2 := Compute(uniformImage(imaging.C(125, 85, 45)), 8).Normalize()
	green := Compute(uniformImage(imaging.C(20, 220, 30)), 8).Normalize()
	for _, m := range []CompareMethod{Correlation, ChiSquare, Intersection, Hellinger} {
		near := Distance(Compare(brown1, brown2, m), m)
		far := Distance(Compare(brown1, green, m), m)
		if near > far {
			t.Errorf("%v: near %v > far %v", m, near, far)
		}
	}
}

// TestHellingerOccupiedMatchesCompare requires the occupied-bin sum to
// equal Compare's Hellinger bit for bit: normalised and raw histograms
// from sparse to dense, b with negative zeros and nothing occupied,
// and on the b side the NaN, Inf and negative counts Compare folds in
// too.
func TestHellingerOccupiedMatchesCompare(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	fill := func(h *Hist, density float64) {
		for i := range h.Counts {
			switch x := r.Float64(); {
			case x < density:
				h.Counts[i] = float64(r.Intn(500)) * r.Float64()
			case x < density+0.05:
				h.Counts[i] = math.Copysign(0, -1)
			}
		}
	}
	for k := 0; k < 2000; k++ {
		bins := []int{1, 2, 4, 8}[k%4]
		a, b := New(bins), New(bins)
		fill(a, r.Float64())
		fill(b, []float64{0, 0.005, 0.05, 0.5, 1}[k%5])
		if k%3 == 0 {
			a.Normalize()
			b.Normalize()
		}
		if k%97 == 0 {
			b.Counts[r.Intn(len(b.Counts))] = []float64{math.NaN(), math.Inf(1), -2.5}[k%3]
		}
		want := Compare(a, b, Hellinger)
		got := HellingerOccupied(a, a.Total(), NewOccupied(b))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d (%d bins): HellingerOccupied = %v, Compare = %v", k, bins, got, want)
		}
	}
}
