// Package dataset assembles the three evaluation sets of the paper's
// Table 1 — ShapeNetSet1 (SNS1, 82 reference views), ShapeNetSet2 (SNS2,
// 100 views) and the NYUSet (6,934 segmented instances) — from the
// synthetic renderer, together with the image-pair sets used to train
// and test the Normalized-X-Corr network (§3.4).
package dataset

import (
	"fmt"

	"snmatch/internal/imaging"
	"snmatch/internal/rng"
	"snmatch/internal/synth"
)

// SNS1Counts are the per-class view counts of ShapeNetSet1 (Table 1):
// chairs and bottles oversampled, windows and doors (rotation-invariant)
// undersampled.
var SNS1Counts = [synth.NumClasses]int{14, 12, 8, 8, 8, 8, 6, 4, 8, 6}

// SNS2PerClass is the uniform per-class view count of ShapeNetSet2.
const SNS2PerClass = 10

// NYUCounts are the per-class instance counts of the NYUSet (Table 1),
// with chairs downsampled to 1000 as in the paper.
var NYUCounts = [synth.NumClasses]int{1000, 920, 790, 760, 726, 637, 617, 511, 495, 478}

// Sample is one image with its ground truth.
type Sample struct {
	Image *imaging.Image
	Class synth.Class
	Model int
	View  int
}

// Set is a named collection of samples.
type Set struct {
	Name    string
	Samples []Sample
}

// Len returns the number of samples.
func (s *Set) Len() int { return len(s.Samples) }

// CountByClass tallies samples per Table 1 class. Synthetic classes
// beyond the Table 1 taxonomy (BuildLarge galleries) are skipped rather
// than counted, since the fixed-size tally has no slot for them.
func (s *Set) CountByClass() [synth.NumClasses]int {
	var out [synth.NumClasses]int
	for _, sm := range s.Samples {
		if sm.Class >= 0 && int(sm.Class) < synth.NumClasses {
			out[sm.Class]++
		}
	}
	return out
}

// Config controls dataset construction.
type Config struct {
	Size int    // image side in pixels (default synth.DefaultSize)
	Seed uint64 // renderer seed (default 1)

	// NYUPerClassCap, when positive, limits every NYU class to at most
	// this many instances — used to scale the experiments to test-sized
	// budgets while keeping the class imbalance profile.
	NYUPerClassCap int
}

func (c Config) params() synth.Params {
	if c.Size <= 0 {
		c.Size = synth.DefaultSize
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return synth.Params{Size: c.Size, Seed: c.Seed}
}

// BuildSNS1 renders ShapeNetSet1: two models per class (ids 0 and 1),
// Table 1 view counts.
func BuildSNS1(cfg Config) *Set {
	p := cfg.params()
	set := &Set{Name: "SNS1"}
	for _, cls := range synth.AllClasses {
		n := SNS1Counts[cls]
		for i := 0; i < n; i++ {
			model := i % 2
			view := i / 2
			set.Samples = append(set.Samples, Sample{
				Image: synth.RenderView(cls, model, view, synth.ShapeNetMode, p),
				Class: cls, Model: model, View: view,
			})
		}
	}
	return set
}

// BuildSNS2 renders ShapeNetSet2: ten views per class drawn from five
// models (ids 2-6) that do not appear in SNS1, so SNS2-vs-SNS1
// experiments compare unseen model instances of the same classes.
func BuildSNS2(cfg Config) *Set {
	p := cfg.params()
	set := &Set{Name: "SNS2"}
	for _, cls := range synth.AllClasses {
		for i := 0; i < SNS2PerClass; i++ {
			model := 2 + i%5
			view := i / 5
			set.Samples = append(set.Samples, Sample{
				Image: synth.RenderView(cls, model, view, synth.ShapeNetMode, p),
				Class: cls, Model: model, View: view,
			})
		}
	}
	return set
}

// BuildNYU renders the NYUSet: every instance is a distinct model
// (ids from 1000 up) in NYU degradation mode, honouring the Table 1
// class imbalance, optionally capped per class.
func BuildNYU(cfg Config) *Set {
	p := cfg.params()
	set := &Set{Name: "NYU"}
	for _, cls := range synth.AllClasses {
		n := NYUCounts[cls]
		if cfg.NYUPerClassCap > 0 {
			// Preserve the imbalance profile under the cap.
			scaled := n * cfg.NYUPerClassCap / NYUCounts[0]
			if scaled < 1 {
				scaled = 1
			}
			n = scaled
		}
		for i := 0; i < n; i++ {
			model := 1000 + i
			set.Samples = append(set.Samples, Sample{
				Image: synth.RenderView(cls, model, i, synth.NYUMode, p),
				Class: cls, Model: model, View: i,
			})
		}
	}
	return set
}

// BuildLarge wraps synth.LargeGallery as a Set: a scaled synthetic
// reference gallery of classes x viewsPerClass clean views, one model
// per synthetic class, for matching benchmarks that need realistic
// gallery sizes. Classes beyond the Table 1 ten are valid here (they reuse the
// base drawing families with distinct models); such sets classify and
// index normally but fall outside the fixed Table 1 tallies.
func BuildLarge(classes, viewsPerClass int, seed uint64) *Set {
	return largeSet(fmt.Sprintf("Large-%dx%d", classes, viewsPerClass),
		synth.LargeGallery(classes, viewsPerClass, seed))
}

// BuildLargeAt is BuildLarge with an explicit render size: the recall
// benchmarks enroll at 128px so every view carries enough keypoints for
// sharp match-score margins.
func BuildLargeAt(classes, viewsPerClass, size int, seed uint64) *Set {
	return largeSet(fmt.Sprintf("Large-%dx%d@%d", classes, viewsPerClass, size),
		synth.LargeGalleryAt(classes, viewsPerClass, size, seed))
}

// BuildLargeQueriesAt wraps synth.LargeQueriesAt as a Set: unseen poses
// of the models BuildLargeAt enrolls, for recall@1 measurements.
func BuildLargeQueriesAt(classes, perClass, size int, seed uint64) *Set {
	return largeSet(fmt.Sprintf("LargeQ-%dx%d@%d", classes, perClass, size),
		synth.LargeQueriesAt(classes, perClass, size, seed))
}

func largeSet(name string, views []synth.LargeView) *Set {
	set := &Set{Name: name}
	for _, lv := range views {
		set.Samples = append(set.Samples, Sample{
			Image: lv.Image, Class: lv.Class, Model: lv.Model, View: lv.View,
		})
	}
	return set
}

// BuildNYUSubset renders exactly perClass NYU instances per class, as in
// the paper's second NXCorr test set (10 random picks per class).
func BuildNYUSubset(cfg Config, perClass int) *Set {
	p := cfg.params()
	set := &Set{Name: fmt.Sprintf("NYU-%dpc", perClass)}
	for _, cls := range synth.AllClasses {
		for i := 0; i < perClass; i++ {
			model := 5000 + i
			set.Samples = append(set.Samples, Sample{
				Image: synth.RenderView(cls, model, i, synth.NYUMode, p),
				Class: cls, Model: model, View: i,
			})
		}
	}
	return set
}

// Pair references two samples and whether they share a class.
type Pair struct {
	A, B    int // indices into the respective sets
	Similar bool
}

// AllPairs enumerates every unordered pair within the set: C(n, 2)
// pairs, labelled similar when the classes match. For SNS1's 82 views
// this yields the paper's 3,321 test pairs.
func AllPairs(s *Set) []Pair {
	var out []Pair
	for i := 0; i < s.Len(); i++ {
		for j := i + 1; j < s.Len(); j++ {
			out = append(out, Pair{
				A: i, B: j,
				Similar: s.Samples[i].Class == s.Samples[j].Class,
			})
		}
	}
	return out
}

// CrossPairs enumerates every (query, gallery) pair across two sets:
// for 100 NYU picks against SNS1's 82 views this yields the paper's
// 8,200 pairs.
func CrossPairs(q, g *Set) []Pair {
	var out []Pair
	for i := 0; i < q.Len(); i++ {
		for j := 0; j < g.Len(); j++ {
			out = append(out, Pair{
				A: i, B: j,
				Similar: q.Samples[i].Class == g.Samples[j].Class,
			})
		}
	}
	return out
}

// TrainPairs samples a training pair set of the requested size and
// positive fraction from within the set, mirroring §3.4's 9,450 pairs at
// 52% similar: positives pair same-class samples (oversampling as
// needed), negatives pair distinct classes, both drawn deterministically.
func TrainPairs(s *Set, total int, posFrac float64, seed uint64) []Pair {
	r := rng.New(seed)
	byClass := map[synth.Class][]int{}
	for i, sm := range s.Samples {
		byClass[sm.Class] = append(byClass[sm.Class], i)
	}
	var classes []synth.Class
	for _, c := range synth.AllClasses {
		if len(byClass[c]) >= 2 {
			classes = append(classes, c)
		}
	}
	if len(classes) < 2 {
		panic("dataset: TrainPairs needs at least two populated classes")
	}
	nPos := int(float64(total)*posFrac + 0.5)
	out := make([]Pair, 0, total)
	for len(out) < nPos {
		c := classes[r.Intn(len(classes))]
		idx := byClass[c]
		a, b := idx[r.Intn(len(idx))], idx[r.Intn(len(idx))]
		if a == b {
			continue
		}
		out = append(out, Pair{A: a, B: b, Similar: true})
	}
	for len(out) < total {
		ca := classes[r.Intn(len(classes))]
		cb := classes[r.Intn(len(classes))]
		if ca == cb {
			continue
		}
		a := byClass[ca][r.Intn(len(byClass[ca]))]
		b := byClass[cb][r.Intn(len(byClass[cb]))]
		out = append(out, Pair{A: a, B: b, Similar: false})
	}
	// Interleave positives and negatives deterministically.
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// PositiveFraction returns the fraction of similar pairs.
func PositiveFraction(pairs []Pair) float64 {
	if len(pairs) == 0 {
		return 0
	}
	n := 0
	for _, p := range pairs {
		if p.Similar {
			n++
		}
	}
	return float64(n) / float64(len(pairs))
}
