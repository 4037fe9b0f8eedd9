package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"snmatch/internal/fault"
	"snmatch/internal/imaging"
	"snmatch/internal/pipeline"
)

// readErrorBody decodes an error response's JSON body (error message
// plus the optional partial stage trace).
func readErrorBody(t *testing.T, r io.Reader) (msg string, stages map[string]float64) {
	t.Helper()
	var body struct {
		Error    string             `json:"error"`
		StagesMS map[string]float64 `json:"stages_ms"`
	}
	if err := json.NewDecoder(r).Decode(&body); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	return body.Error, body.StagesMS
}

// TestDeadlineExpiredBeforeDecode pins the fail-fast path: a request
// whose deadline is already gone is refused 504 before any decode or
// pipeline work — its partial stage trace has no decode entry.
func TestDeadlineExpiredBeforeDecode(t *testing.T) {
	_, queries := fixture(t)
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	before := serveObs().deadlineExceeded.Value()

	resp, err := http.Post(ts.URL+"/classify?pipeline=orb", "image/png", bytes.NewReader(pngBytes(t, queries.Samples[0].Image)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	msg, stages := readErrorBody(t, resp.Body)
	if !strings.Contains(msg, "deadline") {
		t.Fatalf("error %q does not name the deadline", msg)
	}
	if _, decoded := stages["decode"]; decoded {
		t.Fatalf("expired request still decoded its body: stages %v", stages)
	}
	if serveObs().deadlineExceeded.Value() <= before {
		t.Fatal("snmatch_deadline_exceeded_total did not increment")
	}
}

// TestDeadlineExpiresMidPipeline pins cancellation between stages: a
// latency fault stretches the shard scan past the request timeout, so
// the deadline expires after decode/extract but before the scan
// completes — the answer is 504 and the partial counts are discarded,
// never served.
func TestDeadlineExpiresMidPipeline(t *testing.T) {
	_, queries := fixture(t)
	defer fault.Disarm()
	if err := fault.Arm("shard-scan:latency:delay=300ms"); err != nil {
		t.Fatal(err)
	}
	before := serveObs().deadlineExceeded.Value()
	_, ts := newTestServer(t, Config{RequestTimeout: 60 * time.Millisecond})

	resp, err := http.Post(ts.URL+"/classify?pipeline=orb", "image/png", bytes.NewReader(pngBytes(t, queries.Samples[0].Image)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	msg, stages := readErrorBody(t, resp.Body)
	if !strings.Contains(msg, "deadline") {
		t.Fatalf("error %q does not name the deadline", msg)
	}
	// The request got through decode before the scan stalled: the 504
	// carries that partial trace.
	if _, ok := stages["decode"]; !ok {
		t.Fatalf("mid-pipeline 504 lost its decode stage: %v", stages)
	}
	if serveObs().deadlineExceeded.Value() <= before {
		t.Fatal("snmatch_deadline_exceeded_total did not increment")
	}
}

// TestClassifyAdmitFault503 pins the fault-injection smoke contract:
// an armed classify-admit error surfaces as a clean retryable 503
// (Retry-After set), the injection counter ticks, and disarming
// restores normal service.
func TestClassifyAdmitFault503(t *testing.T) {
	_, queries := fixture(t)
	_, ts := newTestServer(t, Config{})
	png := pngBytes(t, queries.Samples[0].Image)

	defer fault.Disarm()
	if err := fault.Arm("classify-admit:error"); err != nil {
		t.Fatal(err)
	}
	before := fault.Fired(fault.ClassifyAdmit)
	resp, err := http.Post(ts.URL+"/classify?pipeline=orb", "image/png", bytes.NewReader(png))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("injected-fault 503 is missing Retry-After")
	}
	if fault.Fired(fault.ClassifyAdmit) <= before {
		t.Fatal("snmatch_fault_injections_total did not tick")
	}

	fault.Disarm()
	resp2, out := postClassify(t, ts.URL+"/classify?pipeline=orb", "image/png", png)
	if resp2.StatusCode != http.StatusOK || len(out.Predictions) != 1 {
		t.Fatalf("disarmed request: status %d, %d predictions", resp2.StatusCode, len(out.Predictions))
	}
}

// TestPanicFaultRecovered pins per-query panic recovery: an armed
// panic-mode shard-scan fault crashes the scan worker, the recovery
// converts it into an error answer (a retryable 503 here, since the
// panic value wraps fault.ErrInjected), snmatch_panics_total ticks —
// and the process keeps serving: the next answer equals the serial
// pipeline's.
func TestPanicFaultRecovered(t *testing.T) {
	g, queries := fixture(t)
	_, ts := newTestServer(t, Config{})
	img := queries.Samples[0].Image
	png := pngBytes(t, img)

	defer fault.Disarm()
	if err := fault.Arm("shard-scan:panic"); err != nil {
		t.Fatal(err)
	}
	before := serveObs().panics.Value()
	resp, err := http.Post(ts.URL+"/classify?pipeline=orb", "image/png", bytes.NewReader(png))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := readErrorBody(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, msg)
	}
	if !strings.Contains(msg, "panicked") {
		t.Fatalf("error %q does not surface the recovered panic", msg)
	}
	if serveObs().panics.Value() <= before {
		t.Fatal("snmatch_panics_total did not increment")
	}

	fault.Disarm()
	resp2, out := postClassify(t, ts.URL+"/classify?pipeline=orb", "image/png", png)
	if resp2.StatusCode != http.StatusOK || len(out.Predictions) != 1 {
		t.Fatalf("post-panic request: status %d, %d predictions — the worker did not survive", resp2.StatusCode, len(out.Predictions))
	}
	want := pipeline.NewDescriptor(pipeline.ORB, 0.5).Classify(img, g)
	if p := out.Predictions[0]; p.Class != want.Class.String() || p.View != want.Index || p.Score != want.Score {
		t.Fatalf("post-panic prediction %+v, want %+v", p, want)
	}
}

// TestCancelWhileQueuedKeepsOthersBitEqual pins query isolation at the
// worker gate. With the only slot held, one query's context is
// cancelled while it waits: it returns context.Canceled with no result,
// and never classifies, since the slot stays held until it has
// returned. Once the slot frees, the two queries queued beside it
// classify bit-identically to the serial pipeline.
func TestCancelWhileQueuedKeepsOthersBitEqual(t *testing.T) {
	g, queries := fixture(t)
	d := pipeline.NewDescriptor(pipeline.ORB, 0.5)
	qa, qb, qc := queries.Samples[0].Image, queries.Samples[1].Image, queries.Samples[2].Image
	wantA, wantB := d.Classify(qa, g), d.Classify(qb, g)

	s := New(NewRegistry(), Config{Workers: 1})
	sg := pipeline.NewShardedGallery(g, 4)
	p, err := s.pipelineFor("orb")
	if err != nil {
		t.Fatal(err)
	}
	if !s.workers.TryEnter() {
		t.Fatal("could not take the only worker slot")
	}
	type answer struct {
		res Result
		err error
	}
	classify := func(ctx context.Context, img *imaging.Image) <-chan answer {
		ch := make(chan answer, 1)
		go func() {
			res, err := s.classify(ctx, sg, p, img)
			ch <- answer{res, err}
		}()
		return ch
	}
	ctxC, cancelC := context.WithCancel(context.Background())
	a := classify(context.Background(), qa)
	b := classify(context.Background(), qb)
	c := classify(ctxC, qc)
	cancelC()

	rc := <-c
	if !errors.Is(rc.err, context.Canceled) {
		t.Fatalf("cancelled query returned %v, want context.Canceled", rc.err)
	}
	if rc.res != (Result{}) {
		t.Fatalf("cancelled query carries a result: %+v", rc.res)
	}
	select {
	case r := <-a:
		t.Fatalf("query A answered while the only slot was held: %+v", r)
	case r := <-b:
		t.Fatalf("query B answered while the only slot was held: %+v", r)
	default:
	}

	s.workers.Leave()
	ra, rb := <-a, <-b
	if ra.err != nil || rb.err != nil {
		t.Fatalf("queued neighbours failed: %v / %v", ra.err, rb.err)
	}
	if ra.res.Pred != wantA || rb.res.Pred != wantB {
		t.Fatalf("neighbour predictions diverged from serial:\n  A %+v want %+v\n  B %+v want %+v",
			ra.res.Pred, wantA, rb.res.Pred, wantB)
	}
}

// TestServerLeavesNoGoroutines drives every request shape — a single
// /classify, a JSON batch, /detect, a 504 and a recovered shard-scan
// panic — through real HTTP servers, then closes the servers and the
// client's idle connections. The goroutine count must return to its
// baseline: nothing in serve starts a goroutine that outlives its
// request.
func TestServerLeavesNoGoroutines(t *testing.T) {
	g, queries := fixture(t)
	png := pngBytes(t, queries.Samples[0].Image)
	b64 := base64.StdEncoding.EncodeToString(png)
	batch, _ := json.Marshal(classifyRequest{Images: []string{b64, b64, b64}})
	scene := pngBytes(t, sceneFixture().Image)
	defer fault.Disarm()

	base := runtime.NumGoroutine()
	reg := NewRegistry()
	if err := reg.Add("sns1", pipeline.NewShardedGallery(g, 4)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Config{}).Handler())
	short := httptest.NewServer(New(reg, Config{RequestTimeout: 50 * time.Millisecond}).Handler())
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	post := func(url, contentType string, body []byte, want int) {
		t.Helper()
		resp, err := client.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, want)
		}
	}
	post(ts.URL+"/classify?pipeline=orb", "image/png", png, http.StatusOK)
	post(ts.URL+"/classify?pipeline=orb", "application/json", batch, http.StatusOK)
	post(ts.URL+"/detect", "image/png", scene, http.StatusOK)
	if err := fault.Arm("shard-scan:latency:delay=200ms"); err != nil {
		t.Fatal(err)
	}
	post(short.URL+"/classify?pipeline=orb", "image/png", png, http.StatusGatewayTimeout)
	if err := fault.Arm("shard-scan:panic"); err != nil {
		t.Fatal(err)
	}
	post(ts.URL+"/classify?pipeline=orb", "image/png", png, http.StatusServiceUnavailable)
	fault.Disarm()

	ts.Close()
	short.Close()
	tr.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines remain after close, baseline %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestSlowLogConcurrentWriters pins the slow-log serialisation: many
// concurrent slow requests write through one shared writer and every
// emitted line still parses as a complete JSON document (interleaved
// writes would corrupt the stream).
func TestSlowLogConcurrentWriters(t *testing.T) {
	_, queries := fixture(t)
	var buf bytes.Buffer // plain buffer: the server's slowMu is the only serialisation
	_, ts := newTestServer(t, Config{SlowLog: time.Nanosecond, SlowLogW: &buf})
	png := pngBytes(t, queries.Samples[0].Image)

	const writers = 12
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/classify?pipeline=orb", "image/png", bytes.NewReader(png))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()

	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var entry map[string]any
		if err := json.Unmarshal(sc.Bytes(), &entry); err != nil {
			t.Fatalf("slow-log line %d is not valid JSON (%v): %q", lines, err, sc.Text())
		}
		for _, key := range []string{"ts", "endpoint", "gallery", "pipeline", "latency_ms"} {
			if _, ok := entry[key]; !ok {
				t.Fatalf("slow-log line %d is missing %q: %q", lines, key, sc.Text())
			}
		}
	}
	if lines != writers {
		t.Fatalf("slow log has %d lines, want %d", lines, writers)
	}
}
