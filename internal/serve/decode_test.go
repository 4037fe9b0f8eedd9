package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"image"
	"image/png"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"snmatch/internal/imaging"
)

// genericImage hides an image's concrete type, so FromStdImage converts
// it through its per-pixel At loop: the reference for the RGBA fast
// path.
type genericImage struct{ image.Image }

// encodeRGBA returns a w x h opaque truecolor PNG, the body snbench and
// the CLI send.
func encodeRGBA(t testing.TB, w, h int) []byte {
	t.Helper()
	m := image.NewRGBA(image.Rect(0, 0, w, h))
	for i := range m.Pix {
		m.Pix[i] = uint8(i * 7)
	}
	for i := 3; i < len(m.Pix); i += 4 {
		m.Pix[i] = 0xff
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeAllocsIndependentOfSize is the decode allocation gate:
// decodePNG inflates an opaque truecolor body straight into the
// returned raster through a pooled zlib reader, so it makes the same
// three allocations (the image, its pixels, the adler32 digest) at
// 64x64 as at 320x240, and allocates the raster's bytes plus a small
// constant.
func TestDecodeAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	// Both counts are process-wide. A GC cycle inside the measured runs
	// adds allocations the decoder does not make (sync.Pool re-pinning
	// its per-P slots, the runtime's cleanup of unique maps), so the
	// collector stays off while the gate counts.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, size := range [][2]int{{64, 64}, {320, 240}} {
		body := encodeRGBA(t, size[0], size[1])
		decode := func() {
			if _, err := decodePNG(body, 1<<20); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, decode)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 10
		for i := 0; i < runs; i++ {
			decode()
		}
		runtime.ReadMemStats(&after)
		perDecode := (after.TotalAlloc - before.TotalAlloc) / runs
		// A large raster is rounded up to whole 8 KiB pages.
		raster := uint64(3 * size[0] * size[1])
		if allocs > 3 || perDecode > raster+8<<10+1<<10 {
			t.Errorf("%dx%d: decodePNG allocates %.0f times and %d B; want <= 3 times and the %d B raster plus 9 KiB",
				size[0], size[1], allocs, perDecode, raster)
		}
		t.Logf("%dx%d: %.0f allocs, %d B (raster %d B)", size[0], size[1], allocs, perDecode, raster)
	}
}

// fuzzMaxPixels is FuzzDecodeImages' pixel cap: small, so the seed
// corpus holds headers on both sides of it.
const fuzzMaxPixels = 64 * 64

// FuzzDecodeImages feeds decodeImages a raw PNG body (json false) or a
// JSON batch document (json true) under a small pixel cap. It must
// never panic; an image whose header declares more than the cap must
// be refused by the header check, before the full decode; and every
// image it returns must equal the per-pixel At conversion of
// png.Decode's output.
func FuzzDecodeImages(f *testing.F) {
	const maxImages = 4
	f.Fuzz(func(t *testing.T, body []byte, asJSON bool) {
		req := httptest.NewRequest("POST", "/classify", bytes.NewReader(body))
		raws := [][]byte{body}
		if asJSON {
			req.Header.Set("Content-Type", "application/json")
			var doc classifyRequest
			if json.NewDecoder(bytes.NewReader(body)).Decode(&doc) != nil || len(doc.Images) == 0 || len(doc.Images) > maxImages {
				raws = nil
			} else {
				raws = raws[:0]
				for _, b64 := range doc.Images {
					raw, err := base64.StdEncoding.DecodeString(b64)
					if err != nil {
						break
					}
					raws = append(raws, raw)
				}
				if len(raws) < len(doc.Images) {
					raws = nil // a bad base64 image fails the batch
				}
			}
		} else {
			req.Header.Set("Content-Type", "image/png")
		}
		imgs, err := decodeImages(req, maxImages, fuzzMaxPixels)

		// Replay the contract image by image; the first failure fails
		// the request.
		var want []*imaging.Image
		failed, overCap := raws == nil, false
		for _, raw := range raws {
			cfg, cerr := png.DecodeConfig(bytes.NewReader(raw))
			if cerr != nil {
				failed = true
				break
			}
			if int64(cfg.Width)*int64(cfg.Height) > fuzzMaxPixels || cfg.Width <= 0 || cfg.Height <= 0 {
				failed, overCap = true, true
				break
			}
			std, derr := png.Decode(bytes.NewReader(raw))
			if derr != nil {
				failed = true
				break
			}
			want = append(want, imaging.FromStdImage(genericImage{std}))
		}
		switch {
		case failed && err == nil:
			t.Fatalf("decodeImages accepted a body the contract refuses")
		case overCap && !strings.Contains(err.Error(), "pixel limit"):
			t.Fatalf("over-cap image refused by %q, not by the header check", err)
		case !failed && err != nil:
			t.Fatalf("decodeImages refused a decodable body: %v", err)
		case failed:
			return
		}
		if len(imgs) != len(want) {
			t.Fatalf("%d images, want %d", len(imgs), len(want))
		}
		for i := range want {
			if imgs[i].W != want[i].W || imgs[i].H != want[i].H || !bytes.Equal(imgs[i].Pix, want[i].Pix) {
				t.Fatalf("image %d (%dx%d) differs from the At conversion", i, want[i].W, want[i].H)
			}
		}
	})
}
