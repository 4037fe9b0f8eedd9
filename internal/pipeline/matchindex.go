package pipeline

import (
	"context"
	"fmt"
	"strings"

	"snmatch/internal/features"
	"snmatch/internal/obs"
)

// MatchIndex is the matching engine behind descriptor classification:
// given one query set it fills per-view good-match counts, the numbers
// classifyCounts turns into a prediction. The flat DescriptorIndex is
// the exact reference implementation; the approximate IVF backend over
// binary rows implements the same contract over candidate subsets and
// degrades to bit-identical flat-scan results at its full-probe
// setting, and ShardedIndex fans any backend out across workers.
type MatchIndex interface {
	// Flat returns the underlying exact index: the row storage every
	// backend verifies candidates against, the count-scratch pool, and
	// what snapshots persist.
	Flat() *DescriptorIndex
	// IndexKind reports which backend this is (for /healthz and logs).
	IndexKind() IndexKind
	// Scan overwrites exactly counts[v0:v1] with the views' good-match
	// counts; per-view results do not depend on the split, which is
	// what lets a sharded scan write disjoint ranges concurrently and
	// stay bit-identical to one unsharded call. The scan checks ctx
	// once per query descriptor, or once per view in the flat float
	// scan: a non-nil error is the context's, and the counts are then
	// incomplete and must be discarded. A non-nil
	// tr receives the elapsed match (probe/scan) and verify (exact
	// re-scoring) time and the backend feeds the aggregate ANN
	// histograms; tr accumulates with atomic adds, so concurrent shard
	// workers share one trace and its stages then read as CPU time. A
	// nil tr records nothing.
	Scan(ctx context.Context, query *features.Set, ratio float64, counts []int32, v0, v1 int, tr *obs.Trace) error
	// GoodMatchCounts is the untraced full-range scan under
	// context.Background(); counts must have NumViews entries.
	GoodMatchCounts(query *features.Set, ratio float64, counts []int32)
}

// IndexKind enumerates the matching index backends.
type IndexKind int

const (
	// ExactKind is the flat full scan: perfect recall, O(gallery rows)
	// per query descriptor.
	ExactKind IndexKind = iota
	// IVFKind is inverted-file coarse quantization over binary rows:
	// deterministic seeded k-majority Hamming clustering partitions the
	// rows into lists stored as flat row-major blocks, and queries scan
	// the nprobe nearest lists with the exact Hamming kernel. Float
	// rows keep the flat scan under this kind.
	IVFKind
)

// String names the backend as accepted by the -index flag.
func (k IndexKind) String() string {
	switch k {
	case ExactKind:
		return "exact"
	case IVFKind:
		return "ivf"
	}
	return fmt.Sprintf("IndexKind(%d)", int(k))
}

// ParseIndexKind resolves an -index flag value.
func ParseIndexKind(s string) (IndexKind, error) {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "", "exact", "flat":
		return ExactKind, nil
	case "ivf":
		return IVFKind, nil
	}
	return ExactKind, fmt.Errorf("pipeline: unknown index backend %q (want exact or ivf)", s)
}

// IVFParams tunes the inverted-file backend. Zero values select the
// defaults.
type IVFParams struct {
	// NLists is the number of coarse k-majority centroids. 0 picks
	// ~2*sqrt(rows) clamped to [1, 1024].
	NLists int
	// NProbe is the number of nearest lists scanned per query
	// descriptor (default 8). NProbe >= NLists scans everything — the
	// exact full scan.
	NProbe int
}

func (p IVFParams) withDefaults() IVFParams {
	if p.NProbe == 0 {
		p.NProbe = 8
	}
	return p
}

// IndexSpec is the per-gallery index configuration surface: which
// backend to build over each descriptor family's flat index, and its
// knobs. IVF quantizes binary rows only, so under an IVF spec a mixed
// SIFT+ORB gallery scans ORB through IVF and SIFT exactly.
type IndexSpec struct {
	Kind IndexKind
	IVF  IVFParams
}

// Validate rejects parameter combinations the builders cannot honour.
func (s IndexSpec) Validate() error {
	switch s.Kind {
	case ExactKind:
		return nil
	case IVFKind:
		p := s.IVF.withDefaults()
		if p.NLists < 0 {
			return fmt.Errorf("pipeline: ivf nlists %d must be non-negative", p.NLists)
		}
		if p.NProbe < 1 {
			return fmt.Errorf("pipeline: ivf nprobe %d must be at least 1", p.NProbe)
		}
		return nil
	}
	return fmt.Errorf("pipeline: unknown index kind %d", int(s.Kind))
}

// String renders the spec for logs and /healthz.
func (s IndexSpec) String() string {
	switch s.Kind {
	case IVFKind:
		p := s.IVF.withDefaults()
		nl := "auto"
		if p.NLists > 0 {
			nl = fmt.Sprintf("%d", p.NLists)
		}
		return fmt.Sprintf("ivf(nlists=%s,nprobe=%d)", nl, p.NProbe)
	}
	return "exact"
}

// verifyShortlist is IVF's exact re-scoring phase: every view in
// [v0, v1) holding a non-zero approximate count is re-scored with the
// flat kernel over its full row block, replacing the approximate count
// with the exact one. Runs of adjacent shortlisted views coalesce into
// single ranged kernel calls, so the cost is one flat scan over just
// the shortlisted views' rows.
//
// The result is that counts[v] is either exactly the flat scan's count
// or zero — approximate probing only decides *which* views compete, not
// their scores. Shortlist membership depends only on the query and the
// view's own rows (candidate generation never looks across views), so
// sharded fan-out composes to the same counts as one unsharded call.
func verifyShortlist(ctx context.Context, ix *DescriptorIndex, query *features.Set, ratio float64, counts []int32, v0, v1 int) error {
	for v := v0; v < v1; {
		if counts[v] == 0 {
			v++
			continue
		}
		end := v + 1
		for end < v1 && counts[end] > 0 {
			end++
		}
		if err := ix.scan(ctx, query, ratio, counts, v, end); err != nil {
			return err
		}
		v = end
	}
	return nil
}

// buildMatchIndex constructs the spec'd backend over a flat index. An
// empty gallery or a float one gets the flat index itself, so callers
// always get a working MatchIndex: float rows take the exact lane scan
// under every spec.
func buildMatchIndex(ix *DescriptorIndex, spec IndexSpec) MatchIndex {
	if ix.Len() == 0 || !ix.Binary || spec.Kind != IVFKind {
		return ix
	}
	return NewIVFIndex(ix, spec.IVF)
}
