package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"image"
	"image/png"
	"runtime"
	"testing"
	"time"

	"snmatch/internal/dataset"
	"snmatch/internal/imaging"
	"snmatch/internal/parallel"
	"snmatch/internal/rng"
	"snmatch/internal/synth"
)

// benchSceneParams returns the 64 scene recipes of snbench's
// detect-scenes workload: 320x240 rooms of 2-4 objects, occlusion 0 or
// 0.3, noise sigma 0 or 8, clutter 2, drawn from seed 1.
func benchSceneParams() []synth.SceneParams {
	r := rng.New(1).Split("scenes")
	params := make([]synth.SceneParams, 64)
	for i := range params {
		classes := make([]synth.Class, 2+r.Intn(3))
		for k := range classes {
			classes[k] = synth.AllClasses[r.Intn(len(synth.AllClasses))]
		}
		params[i] = synth.SceneParams{
			W: 320, H: 240,
			Seed:       r.Uint64(),
			Classes:    classes,
			Occlusion:  []float64{0, 0.3}[r.Intn(2)],
			NoiseSigma: []float64{0, 8}[r.Intn(2)],
			Clutter:    2,
		}
	}
	return params
}

// benchScenes renders the first n of those scenes and PNG-encodes
// each as snbench sends it.
func benchScenes(n int) ([]*imaging.Image, [][]byte) {
	params := benchSceneParams()[:n]
	imgs := make([]*imaging.Image, n)
	bodies := make([][]byte, n)
	parallel.ForEach(0, n, func(i int) {
		imgs[i] = synth.ComposeSceneP(params[i]).Image
		bodies[i] = encodeBody(imgs[i])
	})
	return imgs, bodies
}

// proposalDigestGolden is the SHA-256 of the decoded pixels of the 64
// snbench scenes, then of every ProposeCrops box and crop at BgTol 4,
// 12 and 40, computed with the reference paths the other tests keep:
// the per-pixel At decode, the per-mode mask loop and the
// point-collecting tracer.
const proposalDigestGolden = "78a433c58d6c8638507361ab5d8670ecb222abb36a5c988f464f6236f2816362"

// TestProposalDigestGolden pins decode and region proposal over the
// benchmark's scenes, PNG-encoded as snbench sends them. The scenes
// come from synth's float arithmetic, which may fuse into FMA off
// amd64, so the digest is only checked on amd64.
func TestProposalDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest is pinned on amd64; synth's float arithmetic may fuse differently on %s", runtime.GOARCH)
	}
	_, bodies := benchScenes(64)
	h := sha256.New()
	put := func(vs ...int) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, int64(v))
		}
	}
	for _, body := range bodies {
		std, err := png.Decode(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		img := imaging.FromStdImage(std)
		put(img.W, img.H)
		h.Write(img.Pix)
		for _, tol := range []int{4, 12, 40} {
			boxes, crops := ProposeCrops(img, DetectParams{BgTol: tol})
			put(len(boxes))
			for i, b := range boxes {
				put(b.MinX, b.MinY, b.MaxX, b.MaxY, crops[i].W, crops[i].H)
				h.Write(crops[i].Pix)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != proposalDigestGolden {
		t.Fatalf("proposal digest = %s, want %s", got, proposalDigestGolden)
	}
}

// encodeBody PNG-encodes img as snbench and the CLI send it.
func encodeBody(img *imaging.Image) []byte {
	var buf bytes.Buffer
	if err := png.Encode(&buf, img.ToStdImage()); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestDecodePNGWorkloadBodies decodes every request body of the three
// snbench workloads with imaging.DecodePNG: the 64 detect-scenes
// scenes, classify-sift-large's 110 128 px queries and
// classify-orb-small's 100 SNS2 64 px queries. Each must take the fast
// path, so a silent fall back to image/png cannot hide, and equal
// png.Decode's image through the per-pixel At conversion.
func TestDecodePNGWorkloadBodies(t *testing.T) {
	_, bodies := benchScenes(64)
	for _, qs := range []*dataset.Set{
		dataset.BuildLargeQueriesAt(10, 11, 128, 9),
		dataset.BuildSNS2(dataset.Config{Size: 64, Seed: 1}),
	} {
		for _, sm := range qs.Samples {
			bodies = append(bodies, encodeBody(sm.Image))
		}
	}
	if len(bodies) != 64+110+100 {
		t.Fatalf("%d bodies, want 274", len(bodies))
	}
	for i, body := range bodies {
		got, ok := imaging.DecodePNG(body, 1<<20)
		if !ok {
			t.Fatalf("body %d: DecodePNG left it to image/png", i)
		}
		std, err := png.Decode(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if want := imaging.FromStdImage(genericImage{std}); got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("body %d: DecodePNG differs from the At conversion", i)
		}
	}
}

// genericImage hides an image's concrete type, so FromStdImage converts
// it through its per-pixel At loop.
type genericImage struct{ image.Image }

// decodeServing decodes a body as the server does: DecodePNG, and
// image/png for the bodies it leaves.
func decodeServing(body []byte) *imaging.Image {
	if img, ok := imaging.DecodePNG(body, 1<<20); ok {
		return img
	}
	std, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	return imaging.FromStdImage(std)
}

// BenchmarkDecodeScene times the request's first layer on /detect:
// PNG bytes to an imaging.Image, one snbench-shaped 320x240 scene per
// op, with the server's decoder (serve) and with png.Decode plus the
// raster conversion it replaced (stdlib).
func BenchmarkDecodeScene(b *testing.B) {
	_, bodies := benchScenes(16)
	b.Run("serve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sceneSink = decodeServing(bodies[i%len(bodies)])
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			std, err := png.Decode(bytes.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				b.Fatal(err)
			}
			sceneSink = imaging.FromStdImage(std)
		}
	})
}

// sceneSink keeps the benchmarks' results live.
var sceneSink *imaging.Image

// BenchmarkSceneRequest times what one /detect request runs in
// process over snbench's 64 scenes, one pass per op: the server's
// decode, ProposeCrops, and Hybrid (WeightedSum) on every crop against
// the workload's 64 px SNS1 gallery. It reports each stage's ms per
// scene for the noise-free (clean) and the noise sigma 8 (noisy) scenes
// apart, since the request median falls among the clean ones.
func BenchmarkSceneRequest(b *testing.B) {
	params := benchSceneParams()
	_, bodies := benchScenes(len(params))
	g := NewGalleryWorkers(dataset.BuildSNS1(dataset.Config{Size: 64, Seed: 1}), 0)
	pl := DefaultHybrid(WeightedSum)
	var stages [2][3]time.Duration // [noisy][decode, propose, classify]
	var scenes [2]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, body := range bodies {
			noisy := 0
			if params[k].NoiseSigma > 0 {
				noisy = 1
			}
			t0 := time.Now()
			img := decodeServing(body)
			t1 := time.Now()
			_, crops := ProposeCrops(img, DetectParams{})
			t2 := time.Now()
			for _, c := range crops {
				predSink = pl.Classify(c, g)
			}
			t3 := time.Now()
			st := &stages[noisy]
			st[0] += t1.Sub(t0)
			st[1] += t2.Sub(t1)
			st[2] += t3.Sub(t2)
			scenes[noisy]++
		}
	}
	for noisy, name := range []string{"clean", "noisy"} {
		for j, stage := range []string{"decode", "propose", "classify"} {
			ms := float64(stages[noisy][j]) / float64(time.Millisecond) / float64(scenes[noisy])
			b.ReportMetric(ms, name+"-"+stage+"-ms")
		}
	}
}

// predSink keeps BenchmarkSceneRequest's predictions live.
var predSink Prediction

// BenchmarkProposeCrops times region proposal on /detect: foreground
// mask, border tracing, box filtering and the masked crops, one
// snbench-shaped 320x240 scene per op.
func BenchmarkProposeCrops(b *testing.B) {
	imgs, _ := benchScenes(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ProposeCrops(imgs[i%len(imgs)], DetectParams{})
	}
}
