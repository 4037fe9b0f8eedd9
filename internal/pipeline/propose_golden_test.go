package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"image/png"
	"runtime"
	"testing"

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
		var buf bytes.Buffer
		if err := png.Encode(&buf, imgs[i].ToStdImage()); err != nil {
			panic(err)
		}
		bodies[i] = buf.Bytes()
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

// BenchmarkDecodeScene times the request's first layer on /detect:
// PNG bytes to an imaging.Image (png.Decode plus the raster
// conversion), one snbench-shaped 320x240 scene per op.
func BenchmarkDecodeScene(b *testing.B) {
	_, bodies := benchScenes(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		std, err := png.Decode(bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		imaging.FromStdImage(std)
	}
}

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
