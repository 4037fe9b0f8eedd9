package pipeline

import (
	"reflect"
	"sync"
	"testing"

	"snmatch/internal/dataset"
	"snmatch/internal/histogram"
	"snmatch/internal/moments"
	"snmatch/internal/nn"
	"snmatch/internal/synth"
)

// poolSizes are the worker counts every determinism test sweeps,
// covering the serial fallback, a partial pool and an oversubscribed
// pool (16 > query count for the small sets).
var poolSizes = []int{1, 4, 16}

func classesEqual(t *testing.T, label string, serial, par []synth.Class) {
	t.Helper()
	if len(serial) != len(par) {
		t.Fatalf("%s: length %d != %d", label, len(par), len(serial))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Errorf("%s: prediction %d = %v, serial %v", label, i, par[i], serial[i])
		}
	}
}

// statelessPipelines lists one configuration per stateless family.
func statelessPipelines() []Pipeline {
	return []Pipeline{
		ShapeOnly{Method: moments.MatchI3},
		ColorOnly{Metric: histogram.Hellinger},
		DefaultHybrid(WeightedSum),
		DefaultHybrid(MicroAvg),
		DefaultHybrid(MacroAvg),
		NewKNNVote(3),
	}
}

func TestRunParallelMatchesSerialStateless(t *testing.T) {
	for _, p := range statelessPipelines() {
		serialPred, serialTruth := Run(p, sns2, gallery1)
		for _, w := range poolSizes {
			pred, truth := RunParallel(p, sns2, gallery1, w)
			classesEqual(t, p.Name()+" pred", serialPred, pred)
			classesEqual(t, p.Name()+" truth", serialTruth, truth)
		}
	}
}

func TestRunParallelMatchesSerialRandom(t *testing.T) {
	// The baseline consumes an RNG stream: forked workers must replay
	// the serial draw sequence exactly, so fresh instances with equal
	// seeds produce identical predictions at every pool size.
	serialPred, _ := Run(NewRandom(9), sns2, gallery1)
	for _, w := range poolSizes {
		pred, _ := RunParallel(NewRandom(9), sns2, gallery1, w)
		classesEqual(t, "Baseline", serialPred, pred)
	}
}

func TestRunParallelSequenceMatchesSerialSequence(t *testing.T) {
	// Successive runs on ONE stateful pipeline instance must stay
	// aligned with successive serial runs: RunParallel advances the
	// parent past its sweep, so the second sweep continues the RNG
	// stream exactly where a serial first sweep would have left it.
	serial := NewRandom(13)
	s1, _ := Run(serial, sns2, gallery1)
	s2, _ := Run(serial, sns2, gallery1)
	for _, w := range poolSizes {
		par := NewRandom(13)
		p1, _ := RunParallel(par, sns2, gallery1, w)
		p2, _ := RunParallel(par, sns2, gallery1, w)
		classesEqual(t, "sweep 1", s1, p1)
		classesEqual(t, "sweep 2", s2, p2)
	}
	// Mixed serial/parallel sequences align too.
	mixed := NewRandom(13)
	m1, _ := RunParallel(mixed, sns2, gallery1, 4)
	m2, _ := Run(mixed, sns2, gallery1)
	classesEqual(t, "mixed sweep 1", s1, m1)
	classesEqual(t, "mixed sweep 2", s2, m2)
}

func TestRunParallelSequenceAcrossGallerySizes(t *testing.T) {
	// Advance records the sweep's own gallery size, so deferred replay
	// stays aligned with serial even when later sweeps use a gallery of
	// a different size (Intn's draw cost depends on its bound).
	small := NewGallery(&dataset.Set{Name: "small", Samples: sns1.Samples[:7]})
	serial := NewRandom(21)
	s1, _ := Run(serial, sns2, gallery1)
	s2, _ := Run(serial, sns2, small)
	s3, _ := Run(serial, sns2, gallery1)
	par := NewRandom(21)
	p1, _ := RunParallel(par, sns2, gallery1, 4)
	p2, _ := RunParallel(par, sns2, small, 3)
	p3, _ := Run(par, sns2, gallery1)
	classesEqual(t, "cross-size sweep 1", s1, p1)
	classesEqual(t, "cross-size sweep 2", s2, p2)
	classesEqual(t, "cross-size sweep 3", s3, p3)
}

func TestRunParallelMatchesSerialDescriptor(t *testing.T) {
	// Small gallery keeps brute-force matching fast; the parallel run
	// also exercises Preparer-driven descriptor prefill.
	small := NewGallery(&dataset.Set{Name: "small", Samples: sns1.Samples[:12]})
	queries := &dataset.Set{Name: "q", Samples: sns2.Samples[:10]}
	p := NewDescriptor(ORB, 0.75)
	serialPred, _ := Run(p, queries, small)
	for _, w := range poolSizes {
		fresh := NewGallery(&dataset.Set{Name: "small", Samples: sns1.Samples[:12]})
		pred, _ := RunParallel(NewDescriptor(ORB, 0.75), queries, fresh, w)
		classesEqual(t, "ORB", serialPred, pred)
	}
}

func trainTinyNeural(t *testing.T) *Neural {
	t.Helper()
	cfg := nn.NXCorrConfig{
		InputH: 16, InputW: 16, InputC: 3,
		Conv1Out: 4, Conv2Out: 4, Kernel: 3,
		Patch: 3, SearchW: 3, SearchH: 3,
		Conv3Out: 4, Hidden: 16, Seed: 5,
	}
	pairs := dataset.TrainPairs(sns2, 32, 0.5, 11)
	fit := nn.FitConfig{Epochs: 1, BatchSize: 8, LR: 1e-3, EarlyEps: 1e-9, Patience: 5, Seed: 2}
	neural, _, err := TrainNeural(cfg, sns2, pairs, fit, nil)
	if err != nil {
		t.Fatal(err)
	}
	return neural
}

func TestRunParallelMatchesSerialNeural(t *testing.T) {
	if testing.Short() {
		t.Skip("neural training")
	}
	neural := trainTinyNeural(t)
	small := NewGallery(&dataset.Set{Name: "g", Samples: sns1.Samples[:10]})
	queries := &dataset.Set{Name: "q", Samples: sns2.Samples[:8]}
	serialPred, _ := Run(neural, queries, small)
	for _, w := range poolSizes {
		pred, _ := RunParallel(neural, queries, small, w)
		classesEqual(t, "NXCorr", serialPred, pred)
	}

	// The pooled binary pair task must match the serial sweep too.
	pairs := dataset.AllPairs(queries)
	serialBP, serialBT := neural.ClassifyPairs(pairs, queries, queries)
	for _, w := range poolSizes {
		bp, bt := neural.ClassifyPairsParallel(pairs, queries, queries, w)
		if !reflect.DeepEqual(serialBP, bp) || !reflect.DeepEqual(serialBT, bt) {
			t.Errorf("workers=%d: pair classification diverged from serial", w)
		}
	}
}

func TestNewGalleryWorkersIdenticalViewForView(t *testing.T) {
	base := NewGalleryWorkers(sns1, 1)
	for _, w := range []int{2, 8, 64} {
		g := NewGalleryWorkers(sns1, w)
		if g.Len() != base.Len() {
			t.Fatalf("workers=%d: gallery size %d != %d", w, g.Len(), base.Len())
		}
		for i := range g.Views {
			if g.Views[i].Hu != base.Views[i].Hu {
				t.Errorf("workers=%d view %d: Hu diverged", w, i)
			}
			if !reflect.DeepEqual(g.Views[i].Hist, base.Views[i].Hist) {
				t.Errorf("workers=%d view %d: histogram diverged", w, i)
			}
			if !reflect.DeepEqual(g.Views[i].Sample, base.Views[i].Sample) {
				t.Errorf("workers=%d view %d: sample diverged", w, i)
			}
		}
	}
}

func TestPrepareDescriptorsWorkersIdentical(t *testing.T) {
	set := &dataset.Set{Name: "small", Samples: sns1.Samples[:10]}
	params := DefaultDescriptorParams()
	base := NewGalleryWorkers(set, 1)
	base.PrepareDescriptorsWorkers(ORB, params, 1)
	par := NewGalleryWorkers(set, 4)
	par.PrepareDescriptorsWorkers(ORB, params, 8)
	for i := range base.Views {
		if !reflect.DeepEqual(base.Views[i].Desc[ORB], par.Views[i].Desc[ORB]) {
			t.Errorf("view %d: parallel descriptor extraction diverged", i)
		}
	}
}

func TestRunParallelEmptyQuerySet(t *testing.T) {
	empty := &dataset.Set{Name: "empty"}
	for _, w := range []int{-1, 0, 1, 4} {
		pred, truth := RunParallel(DefaultHybrid(WeightedSum), empty, gallery1, w)
		if len(pred) != 0 || len(truth) != 0 {
			t.Errorf("workers=%d: non-empty output %d/%d on empty set", w, len(pred), len(truth))
		}
	}
}

func TestRunParallelSingleSample(t *testing.T) {
	one := &dataset.Set{Name: "one", Samples: sns2.Samples[:1]}
	serialPred, _ := Run(ColorOnly{Metric: histogram.Hellinger}, one, gallery1)
	for _, w := range []int{-3, 0, 1, 16} {
		pred, truth := RunParallel(ColorOnly{Metric: histogram.Hellinger}, one, gallery1, w)
		if len(pred) != 1 || len(truth) != 1 {
			t.Fatalf("workers=%d: output length %d/%d", w, len(pred), len(truth))
		}
		classesEqual(t, "single", serialPred, pred)
	}
}

func TestRunParallelClampsNonPositiveWorkers(t *testing.T) {
	// Workers <= 0 must select the CPU default, never panic.
	serialPred, _ := Run(ShapeOnly{Method: moments.MatchI1}, sns2, gallery1)
	for _, w := range []int{0, -1, -100} {
		pred, _ := RunParallel(ShapeOnly{Method: moments.MatchI1}, sns2, gallery1, w)
		classesEqual(t, "clamped", serialPred, pred)
	}
}

// TestConcurrentClassifySharedGallery is the -race stress test for the
// gallery's shared state: many goroutines classify against one gallery
// whose descriptor cache starts empty, hammering the mutex-guarded lazy
// extraction path alongside read-only shape/colour pipelines.
func TestConcurrentClassifySharedGallery(t *testing.T) {
	g := NewGallery(&dataset.Set{Name: "shared", Samples: sns1.Samples[:8]})
	queries := sns2.Samples[:6]
	var wg sync.WaitGroup
	// Pooled prep must be safe alongside classification: it fills the
	// cache through the same mutex-guarded path as lazy extraction.
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.PrepareDescriptorsWorkers(ORB, DefaultDescriptorParams(), 4)
	}()
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var p Pipeline
			switch worker % 3 {
			case 0:
				p = NewDescriptor(ORB, 0.75)
			case 1:
				p = ShapeOnly{Method: moments.MatchI2}
			default:
				p = DefaultHybrid(WeightedSum)
			}
			for _, q := range queries {
				pr := p.Classify(q.Image, g)
				if pr.Index < 0 || pr.Index >= g.Len() {
					t.Errorf("prediction index %d out of range", pr.Index)
				}
			}
		}(worker)
	}
	wg.Wait()
	// Every view must end up with exactly one cached ORB set.
	for i := range g.Views {
		if g.Views[i].Desc[ORB] == nil {
			t.Errorf("view %d: descriptor cache not filled", i)
		}
	}
}

// TestRunParallelStress drives the full RunParallel machinery (chunking,
// forking, shared gallery) under the race detector.
func TestRunParallelStress(t *testing.T) {
	for _, p := range []Pipeline{
		NewRandom(3),
		DefaultHybrid(WeightedSum),
	} {
		for rep := 0; rep < 4; rep++ {
			pred, truth := RunParallel(p, sns2, gallery1, 8)
			if len(pred) != sns2.Len() || len(truth) != sns2.Len() {
				t.Fatalf("%s: bad output length", p.Name())
			}
		}
	}
}
