package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"image/png"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"snmatch/internal/dataset"
	"snmatch/internal/imaging"
	"snmatch/internal/pipeline"
	"snmatch/internal/serve/snapshot"
)

var (
	fixtureOnce    sync.Once
	fixtureGallery *pipeline.Gallery
	fixtureQueries *dataset.Set
)

// fixture builds one small ORB-prepared gallery shared across tests
// (extraction dominates test time; the gallery is immutable under
// serving traffic).
func fixture(t testing.TB) (*pipeline.Gallery, *dataset.Set) {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := dataset.Config{Size: 40, Seed: 6}
		fixtureGallery = pipeline.NewGallery(dataset.BuildSNS1(cfg))
		fixtureGallery.PrepareDescriptors(pipeline.ORB, pipeline.DefaultDescriptorParams())
		fixtureQueries = dataset.BuildSNS2(cfg)
	})
	return fixtureGallery, fixtureQueries
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	g, _ := fixture(t)
	reg := NewRegistry()
	meta := snapshot.Meta{Dataset: "sns1", Size: 40, Seed: 6}
	if err := reg.AddWithMeta("sns1", pipeline.NewShardedGallery(g, 4), meta); err != nil {
		t.Fatal(err)
	}
	s := New(reg, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func pngBytes(t testing.TB, img *imaging.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := png.Encode(&buf, img.ToStdImage()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postClassify(t *testing.T, url, contentType string, body []byte) (*http.Response, ClassifyResponse) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ClassifyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, out
}

// TestClassifySinglePNG posts one raw PNG and checks the prediction
// matches the direct pipeline exactly.
func TestClassifySinglePNG(t *testing.T) {
	g, queries := fixture(t)
	_, ts := newTestServer(t, Config{})
	q := queries.Samples[0]
	want := pipeline.NewDescriptor(pipeline.ORB, 0.5).Classify(q.Image, g)

	resp, out := postClassify(t, ts.URL+"/classify?pipeline=orb", "image/png", pngBytes(t, q.Image))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Predictions) != 1 {
		t.Fatalf("got %d predictions", len(out.Predictions))
	}
	p := out.Predictions[0]
	if p.Class != want.Class.String() || p.View != want.Index || p.Score != want.Score {
		t.Fatalf("served %+v, direct %+v", p, want)
	}
	if out.Gallery != "sns1" || out.Pipeline != "ORB" {
		t.Fatalf("metadata %q/%q", out.Gallery, out.Pipeline)
	}
	if p.LatencyMS < 0 {
		t.Fatalf("bad serving metadata %+v", p)
	}
	if p.ExtractMS <= 0 || p.ExtractMS > p.LatencyMS {
		t.Fatalf("extract_ms %v not within (0, latency_ms %v]", p.ExtractMS, p.LatencyMS)
	}
}

// TestClassifyJSONBatch posts a JSON batch and checks order-preserving,
// pipeline-exact predictions.
func TestClassifyJSONBatch(t *testing.T) {
	g, queries := fixture(t)
	_, ts := newTestServer(t, Config{})
	d := pipeline.NewDescriptor(pipeline.ORB, 0.5)
	var req classifyRequest
	var want []pipeline.Prediction
	for i := 0; i < 5; i++ {
		q := queries.Samples[i]
		req.Images = append(req.Images, base64.StdEncoding.EncodeToString(pngBytes(t, q.Image)))
		want = append(want, d.Classify(q.Image, g))
	}
	body, _ := json.Marshal(req)
	resp, out := postClassify(t, ts.URL+"/classify?gallery=sns1&pipeline=orb", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Predictions) != len(want) {
		t.Fatalf("got %d predictions, want %d", len(out.Predictions), len(want))
	}
	for i, p := range out.Predictions {
		if p.Class != want[i].Class.String() || p.View != want[i].Index || p.Score != want[i].Score {
			t.Fatalf("prediction %d: served %+v, direct %+v", i, p, want[i])
		}
	}
}

// TestClassifyBatchLargerThanWorkers sends a JSON batch far bigger than
// the worker gate: its images must wait their turn for the one slot
// (blocking, not shedding), so the whole batch classifies, in order,
// instead of failing with 503 on an idle server.
func TestClassifyBatchLargerThanWorkers(t *testing.T) {
	g, queries := fixture(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	d := pipeline.NewDescriptor(pipeline.ORB, 0.5)
	var req classifyRequest
	var want []pipeline.Prediction
	for i := 0; i < 10; i++ {
		q := queries.Samples[i%len(queries.Samples)]
		req.Images = append(req.Images, base64.StdEncoding.EncodeToString(pngBytes(t, q.Image)))
		want = append(want, d.Classify(q.Image, g))
	}
	body, _ := json.Marshal(req)
	resp, out := postClassify(t, ts.URL+"/classify?pipeline=orb", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("10-image batch over 1 worker slot: status %d", resp.StatusCode)
	}
	if len(out.Predictions) != len(want) {
		t.Fatalf("got %d predictions, want %d", len(out.Predictions), len(want))
	}
	for i, p := range out.Predictions {
		if p.Class != want[i].Class.String() || p.Score != want[i].Score {
			t.Fatalf("prediction %d: served %+v, direct %+v", i, p, want[i])
		}
	}
}

// TestWarmPipelineSharedAcrossRequests pins the one-instance-per-name
// pipeline table: once warm, sequential /classify requests for the same
// descriptor pipeline reuse its extraction contexts, so the context
// pool never misses. A pipeline instance per request would miss on
// every one.
func TestWarmPipelineSharedAcrossRequests(t *testing.T) {
	_, queries := fixture(t)
	_, ts := newTestServer(t, Config{})
	body := pngBytes(t, queries.Samples[0].Image)
	classify := func() {
		t.Helper()
		if resp, _ := postClassify(t, ts.URL+"/classify?pipeline=orb", "image/png", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	for i := 0; i < 3; i++ {
		classify()
	}
	const misses = "snmatch_ctx_pool_misses_total"
	before := getStatz(t, ts.URL).Counters[misses]
	for i := 0; i < 20; i++ {
		classify()
	}
	if d := getStatz(t, ts.URL).Counters[misses] - before; d != 0 {
		t.Fatalf("20 warm requests missed the context pool %d times, want 0", d)
	}
}

// TestClassifyBatchOverImageCap checks the per-request image bound: the
// admission gate counts requests, so a single oversized JSON batch must
// be refused up front with 400 rather than admitted as unbounded work.
func TestClassifyBatchOverImageCap(t *testing.T) {
	_, queries := fixture(t)
	_, ts := newTestServer(t, Config{MaxImages: 2})
	img := base64.StdEncoding.EncodeToString(pngBytes(t, queries.Samples[0].Image))
	body, _ := json.Marshal(classifyRequest{Images: []string{img, img, img}})
	resp, _ := postClassify(t, ts.URL+"/classify?pipeline=orb", "application/json", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("3-image batch over a 2-image cap: status %d, want 400", resp.StatusCode)
	}
}

// TestClassifyImageDimensionsTooLarge posts a PNG whose decoded raster
// exceeds the pixel cap: it must be refused with 400 before the full
// decode (and an extraction that would inflate the pooled contexts)
// runs.
func TestClassifyImageDimensionsTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxImagePixels: 64 * 64})
	big := imaging.NewImage(80, 80) // 6400 px > 4096 cap
	resp, _ := postClassify(t, ts.URL+"/classify?pipeline=orb", "image/png", pngBytes(t, big))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	ok := imaging.NewImage(64, 64)
	resp, _ = postClassify(t, ts.URL+"/classify?pipeline=orb", "image/png", pngBytes(t, ok))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("at-cap image: status %d, want 200", resp.StatusCode)
	}
}

// TestClassifyBodyTooLarge sends a body over the configured byte limit
// and expects an honest 413, not a decode-failure 400.
func TestClassifyBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyMB: 1})
	// A 2 MiB JSON document: the decoder must read past the 1 MiB cap
	// (raw junk would fail PNG sniffing before ever reaching the limit).
	body, _ := json.Marshal(classifyRequest{Images: []string{strings.Repeat("A", 2<<20)}})
	resp, _ := postClassify(t, ts.URL+"/classify?pipeline=orb", "application/json", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body over a 1 MiB cap: status %d, want 413", resp.StatusCode)
	}
}

// TestClassifyContentTypeCaseInsensitive sends the JSON batch with an
// upper-cased MIME type, which RFC 2045 requires servers to accept.
func TestClassifyContentTypeCaseInsensitive(t *testing.T) {
	_, queries := fixture(t)
	_, ts := newTestServer(t, Config{})
	img := base64.StdEncoding.EncodeToString(pngBytes(t, queries.Samples[0].Image))
	body, _ := json.Marshal(classifyRequest{Images: []string{img}})
	resp, out := postClassify(t, ts.URL+"/classify?pipeline=orb", "Application/JSON; charset=utf-8", body)
	if resp.StatusCode != http.StatusOK || len(out.Predictions) != 1 {
		t.Fatalf("upper-cased content type: status %d, %d predictions", resp.StatusCode, len(out.Predictions))
	}
}

// TestClassifyConcurrent floods the server with concurrent single-image
// requests, more than it has worker slots, and checks every response is
// still exact: requests sharing the pipeline instance, its extraction
// contexts and the sharded scan never perturb each other.
func TestClassifyConcurrent(t *testing.T) {
	g, queries := fixture(t)
	_, ts := newTestServer(t, Config{Workers: 2})
	d := pipeline.NewDescriptor(pipeline.ORB, 0.5)
	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := queries.Samples[i%len(queries.Samples)]
			want := d.Classify(q.Image, g)
			resp, err := http.Post(ts.URL+"/classify?pipeline=orb", "image/png", bytes.NewReader(pngBytes(t, q.Image)))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			var out ClassifyResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			p := out.Predictions[0]
			if p.Class != want.Class.String() || p.View != want.Index || p.Score != want.Score {
				errs <- fmt.Errorf("request %d: served %+v, direct %+v", i, p, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClassifyErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := fixtureQueries.Samples[0]
	cases := []struct {
		name, url, ct string
		body          []byte
		status        int
	}{
		{"unknown gallery", "/classify?gallery=nope", "image/png", pngBytes(t, q.Image), http.StatusNotFound},
		{"unknown pipeline", "/classify?pipeline=resnet", "image/png", pngBytes(t, q.Image), http.StatusBadRequest},
		{"bad png", "/classify?pipeline=orb", "image/png", []byte("not a png"), http.StatusBadRequest},
		{"empty json", "/classify?pipeline=orb", "application/json", []byte(`{"images":[]}`), http.StatusBadRequest},
		{"bad base64", "/classify?pipeline=orb", "application/json", []byte(`{"images":["%%"]}`), http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, _ := postClassify(t, ts.URL+c.url, c.ct, c.body)
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
	getResp, err := http.Get(ts.URL + "/classify")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /classify: status %d", getResp.StatusCode)
	}
}

func TestGalleriesAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/galleries")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Galleries []GalleryInfo `json:"galleries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(doc.Galleries) != 1 || doc.Galleries[0].Name != "sns1" || doc.Galleries[0].Shards != 4 {
		t.Fatalf("galleries: %+v", doc.Galleries)
	}
	if doc.Galleries[0].Views != fixtureGallery.Len() || doc.Galleries[0].Descriptors["ORB"] == 0 {
		t.Fatalf("gallery info: %+v", doc.Galleries[0])
	}
	// The listing enumerates what is actually prepared: the fixture
	// built only the ORB index, so SIFT and SURF must not appear.
	if len(doc.Galleries[0].Descriptors) != 1 {
		t.Fatalf("descriptor listing not truthful: %+v", doc.Galleries[0].Descriptors)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status    string          `json:"status"`
		Galleries int             `json:"galleries"`
		Info      []HealthGallery `json:"gallery_info"`
		Capacity  int             `json:"capacity"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Galleries != 1 || health.Capacity <= 0 {
		t.Fatalf("healthz: %+v", health)
	}
	if len(health.Info) != 1 {
		t.Fatalf("healthz gallery_info: %+v", health.Info)
	}
	gi := health.Info[0]
	if gi.Name != "sns1" || gi.Views != fixtureGallery.Len() || gi.Shards != 4 {
		t.Fatalf("healthz gallery shape: %+v", gi)
	}
	if len(gi.Descriptors) != 1 || gi.Descriptors[0] != "ORB" {
		t.Fatalf("healthz descriptor listing: %+v", gi.Descriptors)
	}
	if gi.Snapshot == nil {
		t.Fatalf("healthz gallery provenance missing: %+v", gi)
	}
	if gi.Snapshot.Dataset != "sns1" || gi.Snapshot.Size != 40 || gi.Snapshot.Seed != 6 {
		t.Fatalf("healthz gallery provenance: %+v", gi.Snapshot)
	}
}

// TestAdmissionOverload fills the admission gate by hand and checks the
// server sheds with 503 + Retry-After instead of queueing.
func TestAdmissionOverload(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})
	if !s.gate.TryEnter() {
		t.Fatal("could not take the only admission slot")
	}
	defer s.gate.Leave()
	resp, _ := postClassify(t, ts.URL+"/classify?pipeline=orb", "image/png", pngBytes(t, fixtureQueries.Samples[0].Image))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}
