// Package pipeline implements the paper's five ShapeNet-matching object
// recognition pipelines over a common gallery abstraction: the random
// baseline, shape-only Hu-moment matching, colour-only histogram
// matching, hybrid weighted matching with three argmin strategies,
// SIFT/SURF/ORB descriptor matching with the ratio test, and the
// Normalized-X-Corr neural pair scorer.
package pipeline

import (
	"sort"
	"sync"

	"snmatch/internal/arena"
	"snmatch/internal/contour"
	"snmatch/internal/dataset"
	"snmatch/internal/features"
	"snmatch/internal/features/orb"
	"snmatch/internal/features/sift"
	"snmatch/internal/features/surf"
	"snmatch/internal/histogram"
	"snmatch/internal/imaging"
	"snmatch/internal/moments"
	"snmatch/internal/parallel"
	"snmatch/internal/synth"
)

// HistBins is the joint histogram resolution used throughout (8^3
// cells, OpenCV's common default for RGB comparison).
const HistBins = 8

// DescriptorKind selects the feature descriptor family.
type DescriptorKind int

// The descriptor families evaluated in §3.3.
const (
	SIFT DescriptorKind = iota
	SURF
	ORB
)

// String names the descriptor kind as in Table 3.
func (k DescriptorKind) String() string {
	switch k {
	case SIFT:
		return "SIFT"
	case SURF:
		return "SURF"
	case ORB:
		return "ORB"
	}
	return "unknown"
}

// View is a gallery entry: one reference 2D view with its precomputed
// matching features.
type View struct {
	Sample dataset.Sample

	Hu   moments.Hu
	Hist *histogram.Hist

	Desc map[DescriptorKind]*features.Set // populated by PrepareDescriptors
}

// Gallery is the reference model library M_c of §3.2: K models per
// class, each with a set of 2D views, preprocessed once.
type Gallery struct {
	Views []View

	mu     sync.RWMutex // guards lazy Desc/idx/colors writes during concurrent Classify
	idx    map[DescriptorKind]*DescriptorIndex
	colors []histogram.Occupied // per view; built on the first Hellinger query
}

// NewGallery preprocesses every sample of the reference set (§3.2
// cascade) and computes the always-needed shape and colour features,
// fanned out over one worker per CPU.
func NewGallery(s *dataset.Set) *Gallery { return NewGalleryWorkers(s, 0) }

// NewGalleryWorkers is NewGallery with an explicit pool size
// (workers <= 0 selects one worker per CPU). Every view is a pure
// function of its sample, so the gallery is identical view-for-view
// regardless of the worker count. Each worker recycles the dense
// preprocessing planes (gray + binary rasters) through its own arena —
// the view keeps only the derived Hu moments and histogram, so nothing
// arena-backed outlives an iteration.
func NewGalleryWorkers(s *dataset.Set, workers int) *Gallery {
	g := &Gallery{
		Views: make([]View, s.Len()),
		idx:   map[DescriptorKind]*DescriptorIndex{},
	}
	parallel.ForEachChunk(workers, s.Len(), func(_ int, sp parallel.Span) {
		a := arena.New()
		for i := sp.Start; i < sp.End; i++ {
			sm := s.Samples[i]
			pre := contour.PreprocessIn(a, sm.Image)
			v := View{Sample: sm, Desc: map[DescriptorKind]*features.Set{}}
			v.Hu = huOf(pre)
			v.Hist = histOf(pre)
			g.Views[i] = v
			a.Reset()
		}
	})
	return g
}

// huOf computes Hu invariants from the preprocessing result: from the
// largest contour when present, falling back to the binary raster.
func huOf(pre contour.PreprocessResult) moments.Hu {
	if pre.Largest != nil && pre.Largest.Len() >= 3 {
		return moments.HuFromContour(pre.Largest.Points)
	}
	return moments.HuFromGray(pre.Binary, true)
}

// histOf computes the normalised RGB histogram of the preprocessed crop
// restricted to the foreground mask, so the surrounding background
// (black NYU masks, white ShapeNet canvases) does not dominate the
// colour statistics — the "marginal noise reduction" goal of §3.2.
func histOf(pre contour.PreprocessResult) *histogram.Hist { return histOfIn(nil, pre) }

// DescriptorParams bundles extractor settings. Zero values select CPU
// friendly defaults matching the paper's configuration where stated
// (SURF Hessian threshold 400, ORB Hamming matching).
type DescriptorParams struct {
	SIFT sift.Params
	SURF surf.Params
	ORB  orb.Params
}

// DefaultDescriptorParams returns the extraction settings used by the
// experiments: feature counts are capped so brute-force matching of the
// full gallery stays tractable on one CPU.
func DefaultDescriptorParams() DescriptorParams {
	return DescriptorParams{
		SIFT: sift.Params{MaxFeatures: 80},
		SURF: surf.Params{HessianThreshold: 400},
		ORB:  orb.Params{NFeatures: 150},
	}
}

// PrepareDescriptors extracts and caches the given descriptor family
// for every gallery view, fanned out over one worker per CPU.
func (g *Gallery) PrepareDescriptors(kind DescriptorKind, p DescriptorParams) {
	g.PrepareDescriptorsWorkers(kind, p, 0)
}

// PrepareDescriptorsWorkers is PrepareDescriptors with an explicit pool
// size (workers <= 0 selects one worker per CPU). Extraction is pure,
// so the cached sets are identical for any worker count. It fills the
// cache through the same mutex-guarded path as lazy extraction, so it
// is safe to run concurrently with Classify on the same gallery.
func (g *Gallery) PrepareDescriptorsWorkers(kind DescriptorKind, p DescriptorParams, workers int) {
	parallel.ForEach(workers, len(g.Views), func(i int) {
		g.descriptorOf(i, kind, p)
	})
	g.descriptorIndex(kind, p)
}

// descriptorIndex returns the gallery-level flat index of the given
// kind, building (and caching) it on first use. Index construction is a
// pure function of the cached descriptor sets, so two racing builders
// produce identical indexes and the first store wins.
func (g *Gallery) descriptorIndex(kind DescriptorKind, p DescriptorParams) *DescriptorIndex {
	g.mu.RLock()
	ix := g.idx[kind]
	g.mu.RUnlock()
	if ix != nil {
		return ix
	}
	sets := make([]*features.Set, len(g.Views))
	for i := range g.Views {
		sets[i] = g.descriptorOf(i, kind, p)
	}
	ix = NewDescriptorIndex(sets)
	g.mu.Lock()
	if cur := g.idx[kind]; cur != nil {
		ix = cur
	} else {
		g.idx[kind] = ix
	}
	g.mu.Unlock()
	return ix
}

// colorIndex returns each view's occupied histogram bins, building and
// caching them on first use the way descriptorIndex builds its index.
// It is not built at snapshot load: a gallery no colour query touches
// never reads its histogram pages.
func (g *Gallery) colorIndex() []histogram.Occupied {
	g.mu.RLock()
	ix := g.colors
	g.mu.RUnlock()
	if ix != nil {
		return ix
	}
	ix = make([]histogram.Occupied, len(g.Views))
	for i := range g.Views {
		ix[i] = histogram.NewOccupied(g.Views[i].Hist)
	}
	g.mu.Lock()
	if g.colors != nil {
		ix = g.colors
	} else {
		g.colors = ix
	}
	g.mu.Unlock()
	return ix
}

// MatchIndexFor returns the gallery's flat index for the kind,
// building it (and any missing descriptor sets) on first use and
// caching it.
func (g *Gallery) MatchIndexFor(kind DescriptorKind, p DescriptorParams) *DescriptorIndex {
	return g.descriptorIndex(kind, p)
}

// Indexes returns the descriptor indexes built so far, keyed by kind —
// what a snapshot persists. The map is a copy; the indexes are shared
// (they are immutable once built).
func (g *Gallery) Indexes() map[DescriptorKind]*DescriptorIndex {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[DescriptorKind]*DescriptorIndex, len(g.idx))
	for k, ix := range g.idx {
		out[k] = ix
	}
	return out
}

// RestoreGallery reassembles a Gallery from deserialized views and
// prebuilt indexes — the snapshot loader's constructor. Views keep
// whatever descriptor sets they carry (nil Desc maps are initialised so
// lazy extraction still works for kinds the snapshot did not cover), and
// the index cache is seeded so no re-extraction happens for persisted
// kinds.
func RestoreGallery(views []View, idx map[DescriptorKind]*DescriptorIndex) *Gallery {
	g := &Gallery{
		Views: views,
		idx:   map[DescriptorKind]*DescriptorIndex{},
	}
	for i := range g.Views {
		if g.Views[i].Desc == nil {
			g.Views[i].Desc = map[DescriptorKind]*features.Set{}
		}
	}
	for k, ix := range idx {
		if ix != nil {
			g.idx[k] = ix
		}
	}
	return g
}

// IndexStats reports the flat index shape for the given kind without
// building it: total indexed descriptors and views covered (zero values
// when the index has not been built yet).
func (g *Gallery) IndexStats(kind DescriptorKind) (descriptors, views int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if ix := g.idx[kind]; ix != nil {
		return ix.Len(), ix.NumViews
	}
	return 0, 0
}

// IndexedKinds returns the descriptor kinds whose flat indexes have
// been built, in ascending kind order — what the serving layer reports
// as "prepared". Unlike a hardcoded kind list, it stays truthful as
// kinds come and go (e.g. a snapshot that persisted only ORB).
func (g *Gallery) IndexedKinds() []DescriptorKind {
	g.mu.RLock()
	defer g.mu.RUnlock()
	kinds := make([]DescriptorKind, 0, len(g.idx))
	for k := range g.idx {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// descriptorOf returns the cached descriptor set of view i, extracting
// and caching it on first use. It is safe for concurrent Classify
// calls: hits take only a read lock, the store is write-locked, and
// the (deterministic) extraction runs unlocked, so two racing workers
// may duplicate an extraction but observe the same stored value.
func (g *Gallery) descriptorOf(i int, kind DescriptorKind, p DescriptorParams) *features.Set {
	g.mu.RLock()
	d, ok := g.Views[i].Desc[kind]
	g.mu.RUnlock()
	if ok {
		return d
	}
	d = ExtractDescriptors(g.Views[i].Sample.Image, kind, p)
	g.mu.Lock()
	if cur, ok := g.Views[i].Desc[kind]; ok {
		d = cur
	} else {
		g.Views[i].Desc[kind] = d
	}
	g.mu.Unlock()
	return d
}

// ExtractDescriptors runs the chosen extractor on the image.
func ExtractDescriptors(img *imaging.Image, kind DescriptorKind, p DescriptorParams) *features.Set {
	g := img.ToGray()
	switch kind {
	case SIFT:
		return sift.Extract(g, p.SIFT)
	case SURF:
		return surf.Extract(g, p.SURF)
	case ORB:
		return orb.Extract(g, p.ORB)
	}
	panic("pipeline: unknown descriptor kind")
}

// ClassOf returns the class of the i-th gallery view.
func (g *Gallery) ClassOf(i int) synth.Class { return g.Views[i].Sample.Class }

// Len returns the number of gallery views.
func (g *Gallery) Len() int { return len(g.Views) }
