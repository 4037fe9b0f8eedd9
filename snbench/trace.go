package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"snmatch/internal/pipeline"
	"snmatch/internal/serve/snapshot"
)

// span is one timed call into a layer during the traced replay.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`    // distinct input replayed; -1 outside requests
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a tracer that is off records nothing and
// returns span id 0.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id != 0 {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by the union of its direct children's intervals.
// Children may overlap each other (parallel work) or nest; either way
// each covered instant is subtracted once, and child time outside the
// parent's interval is ignored.
func selfTimes(spans []span) []int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, cur := int64(0), s.Start // cur: end of the covered prefix
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// layerStats is the traced replay's per-layer output.
type layerStats struct {
	selfMS      map[string]float64 // mean self time per span name
	calls       map[string]int
	descriptors float64 // mean query descriptors
	regions     float64 // mean proposals per scene
	precision   float64 // proposals overlapping ground truth at IoU >= 0.5, over all proposals
	overheadPct float64 // traced replay wall time over untraced, minus 100%
}

// snapshotOpens is how many times the traced run opens the snapshot;
// snapshot.open_ms is their mean. Tracing overhead is measured over
// traced/untraced pass pairs until each side has run overheadSpan, in
// at most overheadRounds pairs.
const (
	snapshotOpens  = 5
	overheadRounds = 8
	overheadSpan   = 2 * time.Second
)

// replay runs the traced per-layer pass: it opens the snapshot the way
// the server does, then replays every distinct input once, serially,
// through each layer's public functions in the server's order with
// spans on, and writes the spans to spanPath. Further passes with
// spans off and on measure the tracing overhead.
func replay(w workload, snapPath string, inputs []input, spanPath string) (layerStats, error) {
	t := &tracer{on: true, t0: time.Now()}
	rec := t // the tracer whose spans and counts are reported
	var g *pipeline.Gallery
	var mapping *snapshot.Mapping
	for k := 0; k < snapshotOpens; k++ {
		if mapping != nil {
			mapping.Close()
		}
		s := t.begin("snapshot.open", 0, -1)
		var snap *snapshot.Snapshot
		var err error
		if w.mmap {
			if mapping, err = snapshot.Map(snapPath); err == nil {
				snap = mapping.Snap
			}
		} else {
			snap, err = snapshot.Load(snapPath)
		}
		t.end(s)
		if err != nil {
			return layerStats{}, fmt.Errorf("open snapshot: %w", err)
		}
		g = snap.Gallery
	}
	if mapping != nil {
		defer mapping.Close()
	}

	params := pipeline.DefaultDescriptorParams()
	var (
		ectx   *pipeline.ExtractCtx
		mi     pipeline.MatchIndex
		counts []int32
		d      *pipeline.Descriptor
		sg     *pipeline.ShardedGallery
	)
	hybrid := pipeline.DefaultHybrid(pipeline.WeightedSum)
	dp := pipeline.DetectParams{MaxRegions: serverMaxRegions}
	if !w.detect {
		ectx = pipeline.NewExtractCtx()
		mi = g.MatchIndexFor(w.kind, params)
		counts = make([]int32, mi.Flat().NumViews)
		d = pipeline.NewDescriptor(w.kind, serverRatio)
		sg = pipeline.NewShardedGallery(g, serverShards)
	}

	var st layerStats
	var nDesc, nRegions, nGood int
	pass := func(t *tracer, inputs []input) error {
		for i, in := range inputs {
			root := t.begin("request", 0, i)
			s := t.begin("imaging.decode", root, i)
			img, err := decodeBody(in.body)
			t.end(s)
			if err != nil {
				return fmt.Errorf("input %d: %w", i, err)
			}
			if !w.detect {
				s = t.begin("features.extract", root, i)
				q := pipeline.ExtractDescriptorsCtx(img, w.kind, params, ectx)
				t.end(s)
				s = t.begin("pipeline.match", root, i)
				mi.GoodMatchCounts(q, serverRatio, counts)
				t.end(s)
				if t == rec {
					nDesc += q.Len()
				}
				ectx.Reset()
				s = t.begin("pipeline.shard_classify", root, i)
				_, _, err = sg.ClassifyStatsCtx(context.Background(), d, img)
				t.end(s)
				if err != nil {
					return fmt.Errorf("input %d: %w", i, err)
				}
			} else {
				s = t.begin("pipeline.propose", root, i)
				boxes, crops := pipeline.ProposeCrops(img, dp)
				t.end(s)
				for _, c := range crops {
					s = t.begin("pipeline.crop_classify", root, i)
					hybrid.Classify(c, g)
					t.end(s)
				}
				if t == rec {
					nRegions += len(boxes)
					for _, b := range boxes {
						for _, obj := range in.objects {
							if iou(b, obj.Box) >= 0.5 {
								nGood++
								break
							}
						}
					}
				}
			}
			t.end(root)
		}
		return nil
	}
	// A few untimed inputs warm the extraction context, the lazily
	// built shard split and the page cache.
	if err := pass(&tracer{}, inputs[:min(len(inputs), 4)]); err != nil {
		return st, err
	}
	// Traced and untraced passes alternate until each side has run for
	// overheadSpan (at most overheadRounds pairs); the first traced pass
	// keeps its spans. The overhead compares the two sides' totals.
	var traced, untraced time.Duration
	for k := 0; k < overheadRounds && (k == 0 || untraced < overheadSpan); k++ {
		on := t
		if k > 0 {
			on = &tracer{on: true, t0: time.Now()}
		}
		start := time.Now()
		if err := pass(on, inputs); err != nil {
			return st, err
		}
		traced += time.Since(start)
		start = time.Now()
		if err := pass(&tracer{}, inputs); err != nil {
			return st, err
		}
		untraced += time.Since(start)
	}

	self := selfTimes(t.spans)
	st.selfMS, st.calls = map[string]float64{}, map[string]int{}
	sum := map[string]int64{}
	for i, s := range t.spans {
		sum[s.Name] += self[i]
		st.calls[s.Name]++
	}
	for name, ns := range sum {
		st.selfMS[name] = float64(ns) / float64(st.calls[name]) / 1e6
	}
	if n := len(inputs); n > 0 {
		st.descriptors = float64(nDesc) / float64(n)
		st.regions = float64(nRegions) / float64(n)
	}
	if nRegions > 0 {
		st.precision = float64(nGood) / float64(nRegions)
	}
	st.overheadPct = 100 * (traced.Seconds()/untraced.Seconds() - 1)

	f, err := os.Create(spanPath)
	if err != nil {
		return st, err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return st, fmt.Errorf("write spans: %w", err)
	}
	return st, f.Close()
}
