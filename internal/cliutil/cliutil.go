// Package cliutil holds the flag plumbing shared by the repository's
// binaries (snrecog, experiments, snserve, bench), so cross-cutting
// knobs like the worker pool size are declared, documented and
// validated in exactly one place.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strings"

	"snmatch/internal/dataset"
	"snmatch/internal/pipeline"
	"snmatch/internal/serve/snapshot"
)

// MaxWorkers caps a requested pool size at a small multiple of the
// machine's CPUs: beyond that the pool only adds scheduling overhead,
// and a typo like -workers 100000 would otherwise allocate a goroutine
// army before parallel.Clamp sees the per-call item count.
func MaxWorkers() int { return 8 * runtime.GOMAXPROCS(0) }

// Workers registers the shared -workers flag on fs and returns the
// destination. Resolve the final value with ResolveWorkers after
// fs.Parse.
func Workers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0,
		fmt.Sprintf("worker pool size (0 = one per CPU, max %d)", MaxWorkers()))
}

// ResolveWorkers validates and clamps a parsed -workers value: negative
// requests collapse to the automatic size (0, one worker per CPU) and
// oversized requests are capped at MaxWorkers. Downstream code still
// clamps per call against its item count (parallel.Clamp); this is the
// one-time front door validation every binary shares.
func ResolveWorkers(w int) int {
	if w < 0 {
		return 0
	}
	if max := MaxWorkers(); w > max {
		return max
	}
	return w
}

// BuildDataset renders the named reference dataset ("sns1" or "sns2").
func BuildDataset(set string, size int, seed uint64) (*dataset.Set, error) {
	cfg := dataset.Config{Size: size, Seed: seed}
	switch set {
	case "sns1":
		return dataset.BuildSNS1(cfg), nil
	case "sns2":
		return dataset.BuildSNS2(cfg), nil
	}
	return nil, fmt.Errorf("unknown dataset %q (want sns1 or sns2)", set)
}

// BuildPreparedGallery renders the named dataset and prepares the given
// descriptor families (extraction + flat index) across the pool — the
// shared boot path of `snrecog snapshot` and `snserve -build`, kept in
// one place so the two binaries cannot drift.
func BuildPreparedGallery(set string, size int, seed uint64, kinds []pipeline.DescriptorKind, workers int) (*pipeline.Gallery, error) {
	ds, err := BuildDataset(set, size, seed)
	if err != nil {
		return nil, err
	}
	g := pipeline.NewGalleryWorkers(ds, workers)
	params := pipeline.DefaultDescriptorParams()
	for _, k := range kinds {
		g.PrepareDescriptorsWorkers(k, params, workers)
	}
	return g, nil
}

// statSnapshot is the shared missing-file probe of the -snapshot
// loaders: (false, nil) means build fresh, an error means a transient
// stat problem that must not silently bypass (and later overwrite) a
// valid snapshot.
func statSnapshot(path string) (exists bool, err error) {
	if _, err := os.Stat(path); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, fmt.Errorf("stat snapshot %s: %w", path, err)
	}
	return true, nil
}

// checkSnapshotMeta is the shared provenance gate, wrapping a mismatch
// with the operator hint both loaders print.
func checkSnapshotMeta(path string, got, want snapshot.Meta) error {
	if err := got.Check(want); err != nil {
		return fmt.Errorf("%w (snapshot %s was prepared for another configuration; delete it or match its parameters)", err, path)
	}
	return nil
}

// LoadSnapshotIfExists is the shared load side of a binary's -snapshot
// flag: it loads and provenance-checks the gallery snapshot at path.
// A missing file returns (nil, nil) — the caller should build fresh and
// may SaveSnapshot afterwards.
func LoadSnapshotIfExists(path string, want snapshot.Meta) (*snapshot.Snapshot, error) {
	exists, err := statSnapshot(path)
	if !exists {
		return nil, err
	}
	snap, err := snapshot.Load(path)
	if err != nil {
		return nil, err
	}
	if err := checkSnapshotMeta(path, snap.Meta, want); err != nil {
		return nil, err
	}
	return snap, nil
}

// MapSnapshotIfExists is LoadSnapshotIfExists over snapshot.Map: the
// gallery aliases a read-only mapping of the file with zero copies of
// the descriptor payloads. The caller owns the returned mapping and
// must keep it (or a Retain) alive for as long as the gallery is used,
// then Close it. A missing file returns (nil, nil) like the heap
// variant.
func MapSnapshotIfExists(path string, want snapshot.Meta) (*snapshot.Mapping, error) {
	exists, err := statSnapshot(path)
	if !exists {
		return nil, err
	}
	m, err := snapshot.Map(path)
	if err != nil {
		return nil, err
	}
	if err := checkSnapshotMeta(path, m.Snap.Meta, want); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// SaveSnapshot is the matching save side: it stamps the gallery with
// its provenance and persists it under the dataset's name.
func SaveSnapshot(path string, meta snapshot.Meta, g *pipeline.Gallery) error {
	return snapshot.Save(path, &snapshot.Snapshot{Name: meta.Dataset, Meta: meta, Gallery: g})
}

// ParseDescriptorKinds parses a comma-separated descriptor family list
// ("sift,orb"); empty elements are skipped, unknown ones are an error.
func ParseDescriptorKinds(s string) ([]pipeline.DescriptorKind, error) {
	var out []pipeline.DescriptorKind
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(strings.ToLower(part)) {
		case "":
		case "sift":
			out = append(out, pipeline.SIFT)
		case "surf":
			out = append(out, pipeline.SURF)
		case "orb":
			out = append(out, pipeline.ORB)
		default:
			return nil, fmt.Errorf("unknown descriptor family %q (want sift, surf or orb)", part)
		}
	}
	return out, nil
}
