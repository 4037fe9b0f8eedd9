package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"image"
	"image/png"
	"net/http/httptest"
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
// decodePNG allocates per image, not per pixel, so a 320x240 body costs
// the same handful of allocations as a 64x64 one.
func TestDecodeAllocsIndependentOfSize(t *testing.T) {
	allocs := func(w, h int) float64 {
		body := encodeRGBA(t, w, h)
		return testing.AllocsPerRun(10, func() {
			if _, err := decodePNG(body, 1<<20); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64, 64), allocs(320, 240)
	if large-small >= 8 || small-large >= 8 {
		t.Errorf("decodePNG allocates %.0f times at 64x64 and %.0f at 320x240; want within 8", small, large)
	}
	t.Logf("decodePNG allocs: %.0f at 64x64, %.0f at 320x240", small, large)
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
