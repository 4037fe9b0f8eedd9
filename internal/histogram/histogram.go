// Package histogram implements joint RGB colour histograms and the four
// OpenCV-compatible comparison metrics used by the paper's colour-only
// pipeline: Correlation, Chi-square, Intersection and Hellinger
// (Bhattacharyya).
package histogram

import (
	"fmt"
	"math"

	"snmatch/internal/arena"
	"snmatch/internal/imaging"
)

// Hist is a joint 3-D RGB histogram with Bins cells per channel, stored
// row-major as [r][g][b].
type Hist struct {
	Bins   int
	Counts []float64
}

// New returns an empty histogram with the given number of bins per
// channel. It panics unless 1 <= bins <= 256.
func New(bins int) *Hist { return NewIn(nil, bins) }

// NewIn is New with the header and the bin counts drawn from the arena
// (nil falls back to the heap), for the pooled query paths that build a
// throwaway histogram per classification. Arena-backed histograms are
// zeroed exactly like heap ones, and are reclaimed by the arena's Reset.
func NewIn(a *arena.Arena, bins int) *Hist {
	if bins < 1 || bins > 256 {
		panic(fmt.Sprintf("histogram: invalid bin count %d", bins))
	}
	h := arena.NewOf[Hist](a)
	h.Bins = bins
	h.Counts = arena.Slice[float64](a, bins*bins*bins)
	return h
}

// index returns the flat cell index for an RGB value.
func (h *Hist) index(c imaging.RGB) int {
	// Bin width 256/bins; values map uniformly.
	r := int(c.R) * h.Bins / 256
	g := int(c.G) * h.Bins / 256
	b := int(c.B) * h.Bins / 256
	return (r*h.Bins+g)*h.Bins + b
}

// Add accumulates a single colour sample.
func (h *Hist) Add(c imaging.RGB) { h.Counts[h.index(c)]++ }

// Total returns the sum of all cells.
func (h *Hist) Total() float64 {
	t := 0.0
	for _, v := range h.Counts {
		t += v
	}
	return t
}

// Normalize scales the histogram to unit mass in place and returns it.
// An empty histogram is left untouched.
func (h *Hist) Normalize() *Hist {
	t := h.Total()
	if t == 0 {
		return h
	}
	inv := 1 / t
	for i := range h.Counts {
		h.Counts[i] *= inv
	}
	return h
}

// Clone returns a deep copy.
func (h *Hist) Clone() *Hist {
	out := New(h.Bins)
	copy(out.Counts, h.Counts)
	return out
}

// Compute builds the RGB histogram of the whole image.
func Compute(img *imaging.Image, bins int) *Hist { return ComputeIn(nil, img, bins) }

// ComputeIn is Compute with the histogram drawn from the arena (nil
// falls back to the heap).
func ComputeIn(a *arena.Arena, img *imaging.Image, bins int) *Hist {
	h := NewIn(a, bins)
	for i := 0; i < len(img.Pix); i += 3 {
		h.Add(imaging.RGB{R: img.Pix[i], G: img.Pix[i+1], B: img.Pix[i+2]})
	}
	return h
}

// ComputeMasked builds the histogram over pixels whose mask value is
// nonzero. The mask must match the image size.
func ComputeMasked(img *imaging.Image, mask *imaging.Gray, bins int) *Hist {
	return ComputeMaskedIn(nil, img, mask, bins)
}

// ComputeMaskedIn is ComputeMasked with the histogram drawn from the
// arena (nil falls back to the heap).
func ComputeMaskedIn(a *arena.Arena, img *imaging.Image, mask *imaging.Gray, bins int) *Hist {
	if mask.W != img.W || mask.H != img.H {
		panic("histogram: mask size mismatch")
	}
	h := NewIn(a, bins)
	for p, i := 0, 0; p < len(mask.Pix); p, i = p+1, i+3 {
		if mask.Pix[p] == 0 {
			continue
		}
		h.Add(imaging.RGB{R: img.Pix[i], G: img.Pix[i+1], B: img.Pix[i+2]})
	}
	return h
}

// CompareMethod selects the histogram comparison metric.
type CompareMethod int

const (
	// Correlation is OpenCV HISTCMP_CORREL: Pearson correlation of the
	// bin vectors; 1 for identical histograms, higher is more similar.
	Correlation CompareMethod = iota
	// ChiSquare is HISTCMP_CHISQR: sum (a-b)^2/a; 0 for identical
	// histograms, lower is more similar.
	ChiSquare
	// Intersection is HISTCMP_INTERSECT: sum min(a, b); higher is more
	// similar (equals the common mass).
	Intersection
	// Hellinger is HISTCMP_BHATTACHARYYA: sqrt(1 - BC) with BC the
	// Bhattacharyya coefficient; 0 for identical, lower is more similar.
	Hellinger
)

// String returns the paper's label for the metric.
func (m CompareMethod) String() string {
	switch m {
	case Correlation:
		return "Correlation"
	case ChiSquare:
		return "Chi-square"
	case Intersection:
		return "Intersection"
	case Hellinger:
		return "Hellinger"
	}
	return "unknown"
}

// HigherIsBetter reports whether larger comparison values mean more
// similar histograms for the metric.
func (m CompareMethod) HigherIsBetter() bool {
	return m == Correlation || m == Intersection
}

// Compare evaluates the metric between two histograms with equal binning,
// following the OpenCV compareHist definitions.
func Compare(a, b *Hist, method CompareMethod) float64 {
	if a.Bins != b.Bins {
		panic("histogram: comparing histograms with different bin counts")
	}
	n := len(a.Counts)
	switch method {
	case Correlation:
		var sa, sb float64
		for i := 0; i < n; i++ {
			sa += a.Counts[i]
			sb += b.Counts[i]
		}
		ma, mb := sa/float64(n), sb/float64(n)
		var num, da, db float64
		for i := 0; i < n; i++ {
			xa := a.Counts[i] - ma
			xb := b.Counts[i] - mb
			num += xa * xb
			da += xa * xa
			db += xb * xb
		}
		den := math.Sqrt(da * db)
		if den == 0 {
			// OpenCV returns 1 when both are constant (identical up to mean).
			return 1
		}
		return num / den
	case ChiSquare:
		var sum float64
		for i := 0; i < n; i++ {
			if a.Counts[i] > 0 {
				d := a.Counts[i] - b.Counts[i]
				sum += d * d / a.Counts[i]
			}
		}
		return sum
	case Intersection:
		var sum float64
		for i := 0; i < n; i++ {
			sum += math.Min(a.Counts[i], b.Counts[i])
		}
		return sum
	case Hellinger:
		var sa, sb, sxy float64
		for i := 0; i < n; i++ {
			sa += a.Counts[i]
			sb += b.Counts[i]
			sxy += math.Sqrt(a.Counts[i] * b.Counts[i])
		}
		if sa == 0 || sb == 0 {
			return 1
		}
		bc := sxy / math.Sqrt(sa*sb)
		if bc > 1 {
			bc = 1
		}
		return math.Sqrt(1 - bc)
	}
	panic(fmt.Sprintf("histogram: unknown compare method %d", method))
}

// Occupied is a histogram's occupied bins, those whose count is not
// zero, in ascending bin order, with Total the in-order sum of all its
// counts: what Compare's Hellinger sums need of a histogram on the b
// side.
type Occupied struct {
	Bins   int
	Index  []int32
	Counts []float64
	Total  float64
}

// NewOccupied lists h's occupied bins.
func NewOccupied(h *Hist) Occupied {
	o := Occupied{Bins: h.Bins, Total: h.Total()}
	for i, v := range h.Counts {
		if v != 0 {
			o.Index = append(o.Index, int32(i))
			o.Counts = append(o.Counts, v)
		}
	}
	return o
}

// HellingerOccupied returns Compare(a, b, Hellinger) bit for bit, with
// sa = a.Total() and o = NewOccupied(b), summing sqrt(a·b) over b's
// occupied bins alone. A skipped bin adds sqrt(a·0) = ±0, which leaves
// the running sum, +0 or non-zero, unchanged; that needs every count of
// a finite, which every histogram built from pixels is. sa and o.Total
// are Compare's other two sums, in its order.
func HellingerOccupied(a *Hist, sa float64, o Occupied) float64 {
	if a.Bins != o.Bins {
		panic("histogram: comparing histograms with different bin counts")
	}
	var sxy float64
	for k, i := range o.Index {
		sxy += math.Sqrt(a.Counts[i] * o.Counts[k])
	}
	if sa == 0 || o.Total == 0 {
		return 1
	}
	bc := sxy / math.Sqrt(sa*o.Total)
	if bc > 1 {
		bc = 1
	}
	return math.Sqrt(1 - bc)
}

// Distance converts a comparison score into a quantity to minimise, used
// by the hybrid pipeline: for similarity metrics (Correlation and
// Intersection) the paper takes the inverse of the score; for distance
// metrics the score is returned unchanged.
func Distance(score float64, method CompareMethod) float64 {
	if !method.HigherIsBetter() {
		return score
	}
	const eps = 1e-9
	if score < eps {
		return 1 / eps
	}
	return 1 / score
}
