package pipeline

import (
	"context"

	"snmatch/internal/features"
	"snmatch/internal/obs"
)

// MatchIndex is the matching engine behind descriptor classification:
// given one query set it fills per-view good-match counts, the numbers
// classifyCounts turns into a prediction. The flat DescriptorIndex is
// the exact scan, and ShardedIndex fans it out across workers.
type MatchIndex interface {
	// Flat returns the underlying flat index: the row storage, the
	// count-scratch pool, and what snapshots persist.
	Flat() *DescriptorIndex
	// Scan overwrites exactly counts[v0:v1] with the views' good-match
	// counts; per-view results do not depend on the split, which is
	// what lets a sharded scan write disjoint ranges concurrently and
	// stay bit-identical to one unsharded call. The scan checks ctx
	// once per view: a non-nil error is the context's, and the counts
	// are then incomplete and must be discarded. A non-nil tr receives
	// the elapsed match time; tr accumulates with atomic adds, so
	// concurrent shard workers share one trace and the stage then
	// reads as CPU time. A nil tr records nothing.
	Scan(ctx context.Context, query *features.Set, ratio float64, counts []int32, v0, v1 int, tr *obs.Trace) error
	// GoodMatchCounts is the untraced full-range scan under
	// context.Background(); counts must have NumViews entries.
	GoodMatchCounts(query *features.Set, ratio float64, counts []int32)
}
