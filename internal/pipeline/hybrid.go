package pipeline

import (
	"fmt"

	"snmatch/internal/arena"
	"snmatch/internal/histogram"
	"snmatch/internal/imaging"
	"snmatch/internal/moments"
	"snmatch/internal/synth"
)

// HybridStrategy selects how the per-view scores θ are aggregated
// before the argmin (§3.2, equations 2-4).
type HybridStrategy int

const (
	// WeightedSum takes the argmin over all individual view scores
	// (Θ_T in the paper).
	WeightedSum HybridStrategy = iota
	// MicroAvg averages θ per model before the argmin (Θ_Z, eq. 3).
	MicroAvg
	// MacroAvg averages θ per class before the argmin (Θ_C, eq. 4).
	MacroAvg
)

// String names the strategy as in Table 7.
func (s HybridStrategy) String() string {
	switch s {
	case WeightedSum:
		return "weighted sum"
	case MicroAvg:
		return "micro-avg"
	case MacroAvg:
		return "macro-avg"
	}
	return "unknown"
}

// Hybrid combines shape and colour scores: θ = α·S + β·C where S is the
// Hu-moment distance and C the histogram score converted to a distance
// (the paper inverts the similarity metrics Correlation and
// Intersection). The paper's most consistent configuration is L3 +
// Hellinger with α = 0.3, β = 0.7.
type Hybrid struct {
	ShapeMethod moments.MatchMethod
	ColorMetric histogram.CompareMethod
	Alpha, Beta float64
	Strategy    HybridStrategy
}

// DefaultHybrid returns the configuration reported in Tables 7 and 8.
func DefaultHybrid(strategy HybridStrategy) Hybrid {
	return Hybrid{
		ShapeMethod: moments.MatchI3,
		ColorMetric: histogram.Hellinger,
		Alpha:       0.3,
		Beta:        0.7,
		Strategy:    strategy,
	}
}

// Name implements Pipeline.
func (p Hybrid) Name() string {
	return fmt.Sprintf("Shape+Color (%s)", p.Strategy)
}

// Classify implements Pipeline. Preprocessing, the query histogram and
// the per-view score vector all run on a pooled context, so the warm
// WeightedSum query path performs no heap allocation (the averaging
// strategies still build their grouping maps); results are identical to
// computing from scratch. Hellinger scores sum over each view's
// occupied bins (the gallery's colour index), bit-equal to Compare.
func (p Hybrid) Classify(img *imaging.Image, g *Gallery) Prediction {
	c := getPrepCtx()
	pre := c.preprocess(img)
	hu := huOf(pre)
	h := histOfIn(c.a, pre)

	theta := arena.Slice[float64](c.a, g.Len())
	var occ []histogram.Occupied
	var sa float64
	if p.ColorMetric == histogram.Hellinger {
		occ, sa = g.colorIndex(), h.Total()
	}
	for i := range g.Views {
		s := moments.MatchShapes(hu, g.Views[i].Hu, p.ShapeMethod)
		var d float64
		if occ != nil {
			d = histogram.HellingerOccupied(h, sa, occ[i]) // Distance is the identity on Hellinger
		} else {
			d = histogram.Distance(histogram.Compare(h, g.Views[i].Hist, p.ColorMetric), p.ColorMetric)
		}
		theta[i] = p.Alpha*s + p.Beta*d
	}

	var best Prediction
	switch p.Strategy {
	case MicroAvg:
		best = argminGrouped(g, theta, func(v *View) string {
			return fmt.Sprintf("%d/%d", v.Sample.Class, v.Sample.Model)
		})
	case MacroAvg:
		best = argminGrouped(g, theta, func(v *View) string {
			return fmt.Sprintf("%d", v.Sample.Class)
		})
	default:
		best = Prediction{Index: -1}
		for i, t := range theta {
			if best.Index < 0 || t < best.Score {
				best = Prediction{Class: g.ClassOf(i), Index: i, Score: t}
			}
		}
	}
	putPrepCtx(c)
	return best
}

// argminGrouped averages theta within groups and returns the class of
// the group with the minimal mean.
func argminGrouped(g *Gallery, theta []float64, key func(*View) string) Prediction {
	sums := map[string]float64{}
	counts := map[string]int{}
	repr := map[string]int{} // first view index per group
	order := []string{}
	for i := range g.Views {
		k := key(&g.Views[i])
		if _, ok := counts[k]; !ok {
			order = append(order, k)
			repr[k] = i
		}
		sums[k] += theta[i]
		counts[k]++
	}
	best := Prediction{Index: -1}
	var cls synth.Class
	for _, k := range order {
		mean := sums[k] / float64(counts[k])
		if best.Index < 0 || mean < best.Score {
			cls = g.ClassOf(repr[k])
			best = Prediction{Class: cls, Index: repr[k], Score: mean}
		}
	}
	return best
}
