package pipeline

import (
	"snmatch/internal/arena"
	"snmatch/internal/features"
	"snmatch/internal/features/orb"
	"snmatch/internal/features/sift"
	"snmatch/internal/features/surf"
	"snmatch/internal/imaging"
	"snmatch/internal/obs"
)

// ExtractCtx is a per-worker extraction context: one arena shared by
// the imaging, feature-set and extractor layers, plus each extractor's
// recycled accumulators. A warm context performs a steady-state query
// extraction — grayscale conversion, pyramids/integral tables, detector
// sweeps and the descriptor matrix — with zero heap allocations.
//
// A context is single-owner: it serves one extraction at a time, and
// the Set that extraction returned is invalid once Reset runs. The
// Descriptor pipeline checks contexts out of its free list per
// Classify, so one shared pipeline instance serves RunParallel workers
// and concurrent HTTP requests alike — each query runs on a private
// warmed context.
type ExtractCtx struct {
	arena *arena.Arena
	sift  sift.Scratch
	surf  surf.Scratch
	orb   orb.Scratch

	// Trace is the per-request stage timer: because it lives inside the
	// pooled context, passing &ctx.Trace through the matching interfaces
	// costs no heap allocation on the warm query path (a stack-local
	// trace would escape per call).
	Trace obs.Trace
}

// NewExtractCtx returns an empty context; its buffers are grown by the
// first queries and recycled afterwards.
func NewExtractCtx() *ExtractCtx {
	c := &ExtractCtx{arena: arena.New()}
	c.sift.A = c.arena
	c.surf.A = c.arena
	c.orb.A = c.arena
	return c
}

// Reset reclaims every arena-backed buffer the last extraction loaned,
// invalidating its returned Set. Long-lived caches that survive resets
// (the ORB pattern, the accumulator spines) are kept.
func (c *ExtractCtx) Reset() {
	if c == nil {
		return
	}
	c.arena.Reset()
}

// ExtractDescriptorsCtx is ExtractDescriptors drawing every
// intermediate from the context; a nil context is exactly
// ExtractDescriptors. The returned set is valid until the context's
// Reset.
func ExtractDescriptorsCtx(img *imaging.Image, kind DescriptorKind, p DescriptorParams, c *ExtractCtx) *features.Set {
	if c == nil {
		return ExtractDescriptors(img, kind, p)
	}
	g := img.ToGrayIn(c.arena)
	switch kind {
	case SIFT:
		return sift.ExtractScratch(g, p.SIFT, &c.sift)
	case SURF:
		return surf.ExtractScratch(g, p.SURF, &c.surf)
	case ORB:
		return orb.ExtractScratch(g, p.ORB, &c.orb)
	}
	panic("pipeline: unknown descriptor kind")
}
