package pipeline_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"snmatch/internal/dataset"
	"snmatch/internal/histogram"
	"snmatch/internal/pipeline"
	"snmatch/internal/serve/snapshot"
)

// hybridDigestGolden is the SHA-256 of every ProposeCrops box of
// snbench's 64 detect-scenes scenes, then the class, view and score
// bits of Hybrid (WeightedSum, MicroAvg, MacroAvg) and
// ColorOnly{Hellinger} on each crop, against the 64 px seed 1 SNS1
// gallery, computed with histogram.Compare on every bin.
const hybridDigestGolden = "8a768a4da695b50e341642ccfafeb2b2df4e0e6f5d17eea7fed644b0f557b629"

// TestHybridDigestGolden pins proposal and crop scoring on the
// detect-scenes inputs for the gallery as the workload serves it: built
// in process, restored from a v2 snapshot on the heap, and mapped. The
// scenes come from synth's float arithmetic, which may fuse into FMA on
// other targets, so the digest is checked on amd64 and 386 only.
func TestHybridDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("golden digest is pinned on amd64 and 386; synth's float arithmetic may fuse differently on %s", runtime.GOARCH)
	}
	meta := snapshot.Meta{Dataset: "sns1", Size: 64, Seed: 1}
	built := pipeline.NewGalleryWorkers(dataset.BuildSNS1(dataset.Config{Size: meta.Size, Seed: meta.Seed}), 0)
	path := filepath.Join(t.TempDir(), "sns1.snap")
	if err := snapshot.Save(path, &snapshot.Snapshot{Name: "sns1", Meta: meta, Gallery: built}); err != nil {
		t.Fatal(err)
	}
	loaded, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := snapshot.Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	imgs, _ := pipeline.BenchScenes(64)
	pls := []pipeline.Pipeline{
		pipeline.DefaultHybrid(pipeline.WeightedSum),
		pipeline.DefaultHybrid(pipeline.MicroAvg),
		pipeline.DefaultHybrid(pipeline.MacroAvg),
		pipeline.ColorOnly{Metric: histogram.Hellinger},
	}
	for _, tc := range []struct {
		name string
		g    *pipeline.Gallery
	}{{"built", built}, {"heap", loaded.Gallery}, {"mapped", mapped.Snap.Gallery}} {
		h := sha256.New()
		put := func(vs ...int64) {
			for _, v := range vs {
				binary.Write(h, binary.LittleEndian, v)
			}
		}
		for _, img := range imgs {
			boxes, crops := pipeline.ProposeCrops(img, pipeline.DetectParams{})
			put(int64(len(boxes)))
			for i, b := range boxes {
				put(int64(b.MinX), int64(b.MinY), int64(b.MaxX), int64(b.MaxY))
				for _, pl := range pls {
					pr := pl.Classify(crops[i], tc.g)
					put(int64(pr.Class), int64(pr.Index), int64(math.Float64bits(pr.Score)))
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != hybridDigestGolden {
			t.Errorf("%s gallery: hybrid digest = %s, want %s", tc.name, got, hybridDigestGolden)
		}
	}
}
