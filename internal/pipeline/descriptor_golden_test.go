package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"snmatch/internal/dataset"
	"snmatch/internal/features"
)

// descriptorDigestGolden is the SHA-256 of every SIFT, SURF and ORB
// descriptor set of the 48px SNS1 gallery and SNS2 queries, followed by
// each query's per-view good-match counts at ratios 0.5 and 0.75.
const descriptorDigestGolden = "e0d35876d969749b508458f0d8ecbd6054a6c6f814dcac74d145411852ed0550"

// hashSet writes one descriptor set to h: its length, representation
// and widths, every keypoint field, then the float rows as float32 bits
// and the binary rows as little-endian words.
func hashSet(h hash.Hash, s *features.Set) {
	put := func(vs ...int) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, int64(v))
		}
	}
	bin := 0
	if s.Binary {
		bin = 1
	}
	put(s.Len(), bin, s.Dim, s.RowBytes, s.WordsPerRow)
	for _, kp := range s.Keypoints {
		for _, f := range []float32{kp.X, kp.Y, kp.Size, kp.Angle, kp.Response} {
			binary.Write(h, binary.LittleEndian, math.Float32bits(f))
		}
		put(kp.Octave)
	}
	for _, f := range s.Floats {
		binary.Write(h, binary.LittleEndian, math.Float32bits(f))
	}
	binary.Write(h, binary.LittleEndian, s.Words)
}

// TestDescriptorDigestGolden pins descriptor extraction and the flat
// scan bit for bit: gallery sets come from the heap extractors, query
// sets from a pooled extraction context, and the counts from the flat
// index. The extractors' float arithmetic may fuse into FMA on other
// architectures, so the digest is checked on amd64 and 386 only.
func TestDescriptorDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("golden digest is pinned on amd64 and 386; float arithmetic may fuse differently on %s", runtime.GOARCH)
	}
	params := DefaultDescriptorParams()
	c := NewExtractCtx()
	h := sha256.New()
	for _, kind := range []DescriptorKind{SIFT, SURF, ORB} {
		sets := make([]*features.Set, len(sns1.Samples))
		for i, s := range sns1.Samples {
			sets[i] = ExtractDescriptors(s.Image, kind, params)
			hashSet(h, sets[i])
		}
		ix := NewDescriptorIndex(sets)
		counts := make([]int32, ix.NumViews)
		for _, s := range sns2.Samples {
			q := ExtractDescriptorsCtx(s.Image, kind, params, c)
			hashSet(h, q)
			for _, ratio := range []float64{0.5, 0.75} {
				ix.GoodMatchCounts(q, ratio, counts)
				binary.Write(h, binary.LittleEndian, counts)
			}
			c.Reset()
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != descriptorDigestGolden {
		t.Fatalf("descriptor digest = %s, want %s", got, descriptorDigestGolden)
	}
}

// largeQueryDigestGolden is the SHA-256 of the SIFT sets of the 110
// 128px queries of dataset.BuildLargeQueriesAt(10, 11, 128, 9), the
// inputs of snbench's classify-sift-large workload.
const largeQueryDigestGolden = "29388664c97ce532d64aef1581123306754dae86a6d7c3a9832b8e75f6ca8278"

// TestLargeQueryDigestGolden pins SIFT extraction where the 48px
// fixture of TestDescriptorDigestGolden does not reach: a 256px octave
// 0 and descriptor radii in the thirties. The sets come from one
// pooled extraction context, as in serving.
func TestLargeQueryDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("golden digest is pinned on amd64 and 386; float arithmetic may fuse differently on %s", runtime.GOARCH)
	}
	params := DefaultDescriptorParams()
	c := NewExtractCtx()
	h := sha256.New()
	for _, s := range dataset.BuildLargeQueriesAt(10, 11, 128, 9).Samples {
		hashSet(h, ExtractDescriptorsCtx(s.Image, SIFT, params, c))
		c.Reset()
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != largeQueryDigestGolden {
		t.Fatalf("large query digest = %s, want %s", got, largeQueryDigestGolden)
	}
}
