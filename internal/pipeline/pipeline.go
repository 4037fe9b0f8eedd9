package pipeline

import (
	"snmatch/internal/dataset"
	"snmatch/internal/histogram"
	"snmatch/internal/imaging"
	"snmatch/internal/moments"
	"snmatch/internal/rng"
	"snmatch/internal/synth"
)

// Prediction is a classification outcome: the winning gallery view and
// its class.
type Prediction struct {
	Class synth.Class
	Index int     // winning gallery view index (-1 when not applicable)
	Score float64 // the optimised similarity/distance value
}

// Pipeline classifies a query image against a prepared gallery.
// Implementations that hold mutable state (Random's RNG stream,
// Neural's forward caches) are not safe for concurrent Classify calls
// on one instance; they additionally implement Forker so RunParallel
// can hand every worker an independent clone.
type Pipeline interface {
	Name() string
	Classify(img *imaging.Image, g *Gallery) Prediction
}

// Run classifies every sample of the query set and returns the
// predictions alongside the ground truth, ready for eval.Evaluate.
// RunParallel is the concurrent equivalent with identical output.
func Run(p Pipeline, queries *dataset.Set, g *Gallery) (pred, truth []synth.Class) {
	pred = make([]synth.Class, queries.Len())
	truth = make([]synth.Class, queries.Len())
	for i, sm := range queries.Samples {
		pred[i] = p.Classify(sm.Image, g).Class
		truth[i] = sm.Class
	}
	return pred, truth
}

// Random is the paper's baseline: randomised label assignment by
// picking a uniformly random gallery view, so class probabilities equal
// the gallery's class shares.
type Random struct {
	r    *rng.RNG
	skip int // draws to replay before the first real draw (set by Fork)
}

// NewRandom creates the baseline with a deterministic seed.
func NewRandom(seed uint64) *Random { return &Random{r: rng.New(seed)} }

// Name implements Pipeline.
func (p *Random) Name() string { return "Baseline" }

// Classify implements Pipeline.
func (p *Random) Classify(_ *imaging.Image, g *Gallery) Prediction {
	for p.skip > 0 {
		p.r.Intn(g.Len())
		p.skip--
	}
	i := p.r.Intn(g.Len())
	return Prediction{Class: g.ClassOf(i), Index: i}
}

// Fork implements Forker: the clone starts from the parent's current
// stream position and replays the `start` draws a serial sweep would
// have consumed before reaching its chunk. Each Classify draws exactly
// once, so a worker that owns queries [start, end) produces the same
// predictions there as the serial Run. The replay is deferred to the
// first Classify because the draw bound is the gallery size, which is
// the same gallery that first Classify receives.
func (p *Random) Fork(start int) Pipeline {
	return &Random{r: p.r.Clone(), skip: p.skip + start}
}

// Advance implements Forker by consuming the n draws a serial sweep
// over n queries against g would have consumed, keeping mixed
// sequences of Run and RunParallel on one instance identical — even
// when later sweeps use galleries of other sizes (Intn's rejection
// sampling consumes a bound-dependent number of RNG words, so the
// draws must use this sweep's gallery size, not the next caller's).
func (p *Random) Advance(n int, g *Gallery) {
	// Drain any replay a Fork left pending first: forks are meant for
	// the sweep (and gallery) that created them, so g is its bound.
	for ; p.skip > 0; p.skip-- {
		p.r.Intn(g.Len())
	}
	for j := 0; j < n; j++ {
		p.r.Intn(g.Len())
	}
}

// ShapeOnly matches Hu moments of the query's largest contour against
// every gallery view using one of the three matchShapes distances
// (§3.2, "Shape-only matching").
type ShapeOnly struct {
	Method moments.MatchMethod
}

// Name implements Pipeline.
func (p ShapeOnly) Name() string { return "Shape only " + p.Method.String() }

// Classify implements Pipeline. Preprocessing runs on a pooled context,
// so the warm query path performs no heap allocation; results are
// identical to preprocessing from scratch.
func (p ShapeOnly) Classify(img *imaging.Image, g *Gallery) Prediction {
	c := getPrepCtx()
	hu := huOf(c.preprocess(img))
	best := Prediction{Index: -1, Score: 0}
	for i := range g.Views {
		d := moments.MatchShapes(hu, g.Views[i].Hu, p.Method)
		if best.Index < 0 || d < best.Score {
			best = Prediction{Class: g.ClassOf(i), Index: i, Score: d}
		}
	}
	putPrepCtx(c)
	return best
}

// ColorOnly matches RGB histograms of the preprocessed crop against
// every gallery view with one of the four comparison metrics (§3.2,
// "Colour-only matching").
type ColorOnly struct {
	Metric histogram.CompareMethod
}

// Name implements Pipeline.
func (p ColorOnly) Name() string { return "Color only " + p.Metric.String() }

// Classify implements Pipeline. Preprocessing and the query histogram
// run on a pooled context, so the warm query path performs no heap
// allocation; results are identical to computing from scratch.
// Hellinger sums over each view's occupied bins (the gallery's colour
// index), bit-equal to Compare.
func (p ColorOnly) Classify(img *imaging.Image, g *Gallery) Prediction {
	c := getPrepCtx()
	h := histOfIn(c.a, c.preprocess(img))
	var occ []histogram.Occupied
	var sa float64
	if p.Metric == histogram.Hellinger {
		occ, sa = g.colorIndex(), h.Total()
	}
	best := Prediction{Index: -1}
	for i := range g.Views {
		var s float64
		if occ != nil {
			s = histogram.HellingerOccupied(h, sa, occ[i])
		} else {
			s = histogram.Compare(h, g.Views[i].Hist, p.Metric)
		}
		better := false
		if best.Index < 0 {
			better = true
		} else if p.Metric.HigherIsBetter() {
			better = s > best.Score
		} else {
			better = s < best.Score
		}
		if better {
			best = Prediction{Class: g.ClassOf(i), Index: i, Score: s}
		}
	}
	putPrepCtx(c)
	return best
}
