package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"snmatch/internal/obs"
	"snmatch/internal/pipeline"
)

// getStatz fetches and decodes the /statz document.
func getStatz(t *testing.T, url string) obs.Statz {
	t.Helper()
	resp, err := http.Get(url + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statz status %d", resp.StatusCode)
	}
	var st obs.Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /statz: %v", err)
	}
	return st
}

// getMetrics fetches the /metrics Prometheus text page.
func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestMetricsEndpoint drives real traffic — a successful /classify and
// an admission-shed 503 — then asserts the served /metrics and /statz
// move accordingly. The obs registry is process global (other tests in
// the package also record into it), so every assertion is a delta
// against a baseline snapshot, never an absolute.
func TestMetricsEndpoint(t *testing.T) {
	_, queries := fixture(t)
	_, ts := newTestServer(t, Config{})
	before := getStatz(t, ts.URL)

	// One successful classify.
	resp, out := postClassify(t, ts.URL+"/classify?pipeline=orb", "image/png", pngBytes(t, queries.Samples[0].Image))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d", resp.StatusCode)
	}
	if len(out.Predictions) != 1 {
		t.Fatalf("got %d predictions", len(out.Predictions))
	}
	// The response carries the stage breakdown: request-level decode,
	// per-prediction queue/classify/extract.
	if out.StagesMS["decode"] <= 0 {
		t.Fatalf("response stages_ms missing decode: %v", out.StagesMS)
	}
	ps := out.Predictions[0].StagesMS
	for _, stage := range []string{"queue", "classify", "extract"} {
		if ps[stage] <= 0 {
			t.Fatalf("prediction stages_ms missing %q: %v", stage, ps)
		}
	}

	// One admission shed: hold the only gate slot, then knock.
	s2, ts2 := newTestServer(t, Config{MaxInFlight: 1})
	if !s2.gate.TryEnter() {
		t.Fatal("could not take the only admission slot")
	}
	resp503, _ := postClassify(t, ts2.URL+"/classify?pipeline=orb", "image/png", pngBytes(t, queries.Samples[0].Image))
	s2.gate.Leave()
	if resp503.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server answered %d, want 503", resp503.StatusCode)
	}

	after := getStatz(t, ts.URL)
	cDelta := func(key string) int64 { return after.Counters[key] - before.Counters[key] }
	if d := cDelta(`snmatch_requests_total{endpoint="classify"}`); d < 2 {
		t.Fatalf("classify request counter moved by %d, want >= 2", d)
	}
	if d := cDelta(`snmatch_errors_total{endpoint="classify"}`); d < 1 {
		t.Fatalf("classify error counter moved by %d, want >= 1", d)
	}
	if d := cDelta("snmatch_admission_rejects_total"); d < 1 {
		t.Fatalf("admission reject counter moved by %d, want >= 1", d)
	}
	lat := `snmatch_request_seconds{endpoint="classify"}`
	if d := after.Histograms[lat].Count - before.Histograms[lat].Count; d < 1 {
		t.Fatalf("latency histogram count moved by %d, want >= 1", d)
	}
	if after.Histograms[lat].Mean <= 0 {
		t.Fatal("latency histogram has zero mean after traffic")
	}
	for _, stage := range []string{"queue", "classify", "extract", "match"} {
		key := `snmatch_stage_seconds{stage="` + stage + `"}`
		if after.Histograms[key].Count == 0 {
			t.Fatalf("stage histogram %s empty after traffic", key)
		}
	}

	// The Prometheus text page must carry the same families as samples,
	// not just headers.
	text := getMetrics(t, ts.URL)
	for _, want := range []string{
		"# TYPE snmatch_requests_total counter",
		`snmatch_requests_total{endpoint="classify"} `,
		"# TYPE snmatch_request_seconds histogram",
		`snmatch_request_seconds_count{endpoint="classify"} `,
		`snmatch_request_seconds_bucket{endpoint="classify",le="+Inf"} `,
		`snmatch_stage_seconds_count{stage="extract"} `,
		"snmatch_admission_rejects_total ",
		"snmatch_ctx_pool_hits_total",
		"snmatch_arena_allocated_bytes_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestGallerySwapCounter pins the registry replacement counter.
func TestGallerySwapCounter(t *testing.T) {
	g, _ := fixture(t)
	before := serveObs().swaps.Value()
	reg := NewRegistry()
	if err := reg.Add("swap-me", pipeline.NewShardedGallery(g, 1)); err != nil {
		t.Fatal(err)
	}
	if got := serveObs().swaps.Value(); got != before {
		t.Fatalf("first Add counted as a swap (%d -> %d)", before, got)
	}
	if err := reg.Add("swap-me", pipeline.NewShardedGallery(g, 2)); err != nil {
		t.Fatal(err)
	}
	if got := serveObs().swaps.Value(); got != before+1 {
		t.Fatalf("replacement moved swap counter %d -> %d, want +1", before, got)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the slow-query log writes
// from the handler goroutine while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowQueryLog sets a threshold every request exceeds and checks
// one structured line per slow request, carrying the stage breakdown.
func TestSlowQueryLog(t *testing.T) {
	_, queries := fixture(t)
	var log syncBuffer
	_, ts := newTestServer(t, Config{SlowLog: time.Nanosecond, SlowLogW: &log})
	resp, _ := postClassify(t, ts.URL+"/classify?pipeline=orb", "image/png", pngBytes(t, queries.Samples[0].Image))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d", resp.StatusCode)
	}
	// The handler logs after writing the response; give it a moment.
	var line string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if s := log.String(); strings.Contains(s, "\n") {
			line = s[:strings.IndexByte(s, '\n')]
			break
		}
	}
	if line == "" {
		t.Fatal("no slow-query line logged")
	}
	var entry struct {
		Endpoint  string             `json:"endpoint"`
		Gallery   string             `json:"gallery"`
		Pipeline  string             `json:"pipeline"`
		Images    int                `json:"images"`
		Status    int                `json:"status"`
		LatencyMS float64            `json:"latency_ms"`
		StagesMS  map[string]float64 `json:"stages_ms"`
	}
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("slow-query line is not JSON: %v\n%s", err, line)
	}
	if entry.Endpoint != "classify" || entry.Gallery != "sns1" || entry.Images != 1 || entry.Status != http.StatusOK {
		t.Fatalf("slow-query entry %+v", entry)
	}
	if entry.LatencyMS <= 0 {
		t.Fatal("slow-query entry has no latency")
	}
	for _, stage := range []string{"decode", "queue", "classify", "extract"} {
		if entry.StagesMS[stage] <= 0 {
			t.Fatalf("slow-query stages_ms missing %q: %v", stage, entry.StagesMS)
		}
	}
}
