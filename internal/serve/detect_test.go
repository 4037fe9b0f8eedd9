package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"strings"
	"testing"

	"snmatch/internal/pipeline"
	"snmatch/internal/synth"
)

// sceneFixture composes the shared 3-object detection scene.
func sceneFixture() synth.Scene {
	return synth.ComposeSceneP(synth.SceneParams{
		W: 320, H: 240, Seed: 11,
		Classes: []synth.Class{synth.Chair, synth.Bottle, synth.Lamp},
	})
}

// TestDetectScene posts a composed scene and checks the served regions
// match the in-process detector exactly: same boxes in the same
// deterministic order, same classes, same scores.
func TestDetectScene(t *testing.T) {
	g, _ := fixture(t)
	_, ts := newTestServer(t, Config{})
	sc := sceneFixture()
	want := pipeline.Detect(sc.Image, pipeline.DefaultHybrid(pipeline.WeightedSum), g, pipeline.DetectParams{})

	resp, err := http.Post(ts.URL+"/detect?gallery=sns1&pipeline=hybrid", "image/png", bytes.NewReader(pngBytes(t, sc.Image)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out DetectResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Gallery != "sns1" || !strings.Contains(out.Pipeline, "weighted sum") {
		t.Fatalf("metadata %q/%q", out.Gallery, out.Pipeline)
	}
	if len(out.Regions) != len(want) {
		t.Fatalf("served %d regions, in-process detector found %d", len(out.Regions), len(want))
	}
	for i, r := range out.Regions {
		w := want[i]
		if r.Box != boxJSON(w.Box) {
			t.Errorf("region %d: box %+v, want %+v", i, r.Box, boxJSON(w.Box))
		}
		if r.Class != w.Class.String() || r.View != w.Index || r.Score != w.Score {
			t.Errorf("region %d: served %s/%d/%v, direct %s/%d/%v",
				i, r.Class, r.View, r.Score, w.Class, w.Index, w.Score)
		}
		if r.LatencyMS < 0 {
			t.Errorf("region %d: bad serving metadata %+v", i, r)
		}
	}
}

// TestDetectEmptyScene posts a clutter-only scene: 200 with zero
// regions, not an error.
func TestDetectEmptyScene(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sc := synth.ComposeSceneP(synth.SceneParams{W: 200, H: 160, Seed: 2, Clutter: 6})
	resp, err := http.Post(ts.URL+"/detect", "image/png", bytes.NewReader(pngBytes(t, sc.Image)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out DetectResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Regions) != 0 {
		t.Fatalf("empty scene served %d regions", len(out.Regions))
	}
}

// TestDetectMaxRegions caps the proposal count through the serving
// config.
func TestDetectMaxRegions(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRegions: 2})
	sc := sceneFixture()
	resp, err := http.Post(ts.URL+"/detect", "image/png", bytes.NewReader(pngBytes(t, sc.Image)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out DetectResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Regions) != 2 {
		t.Fatalf("served %d regions over a 2-region cap", len(out.Regions))
	}
}

func TestDetectErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sc := pngBytes(t, sceneFixture().Image)
	cases := []struct {
		name, url string
		body      []byte
		status    int
	}{
		{"unknown gallery", "/detect?gallery=nope", sc, http.StatusNotFound},
		{"unknown pipeline", "/detect?pipeline=resnet", sc, http.StatusBadRequest},
		{"bad png", "/detect", []byte("not a png"), http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.url, "image/png", bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
	getResp, err := http.Get(ts.URL + "/detect")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /detect: status %d", getResp.StatusCode)
	}
}

// craftPNG hand-assembles a minimal PNG prefix (signature + IHDR) with
// arbitrary declared dimensions — image/png happily parses the config
// of dimensions far beyond anything encodable, which is exactly what a
// resource-exhaustion probe would send.
func craftPNG(w, h uint32) []byte {
	var buf bytes.Buffer
	buf.Write([]byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n'})
	ihdr := make([]byte, 13)
	binary.BigEndian.PutUint32(ihdr[0:], w)
	binary.BigEndian.PutUint32(ihdr[4:], h)
	ihdr[8] = 8 // bit depth
	ihdr[9] = 2 // truecolor
	binary.Write(&buf, binary.BigEndian, uint32(len(ihdr)))
	buf.WriteString("IHDR")
	buf.Write(ihdr)
	crc := crc32.NewIEEE()
	crc.Write([]byte("IHDR"))
	crc.Write(ihdr)
	binary.Write(&buf, binary.BigEndian, crc.Sum32())
	return buf.Bytes()
}

// TestDecodePNGExtremeDimensions is the regression test for the pixel
// cap's overflow hole: a header declaring 2147483647 x 2147483647
// multiplies to a product that wraps on 32-bit ints (where it would
// have slipped past the old `w*h > max` check into the full decode);
// the division-based bound must refuse it — and every other
// over-declared raster — up front.
func TestDecodePNGExtremeDimensions(t *testing.T) {
	const maxPx = 4 << 20
	// The full 2147483647 x 2147483647 square is refused by image/png
	// itself (its byte-count overflow check), so the cap's own overflow
	// handling is probed by the asymmetric cases below, whose products
	// wrap 32-bit ints but parse fine.
	if _, err := decodePNG(craftPNG(2147483647, 2147483647), maxPx); err == nil {
		t.Error("2147483647x2147483647 declared raster decoded")
	}
	for _, wh := range [][2]uint32{
		{2147483647, 2},
		{2, 2147483647},
		{65536, 65536},
	} {
		if _, err := decodePNG(craftPNG(wh[0], wh[1]), maxPx); err == nil {
			t.Errorf("%dx%d declared raster decoded despite the %d-pixel cap", wh[0], wh[1], maxPx)
		} else if !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%dx%d: refused for the wrong reason: %v", wh[0], wh[1], err)
		}
	}
}
