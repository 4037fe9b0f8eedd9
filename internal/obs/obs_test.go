package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{9, 4}, {16, 4},
		{1024, 10}, {1025, 11},
		{1 << 38, 38},
		{1<<38 + 1, 39},
		{1 << 39, 39},                   // first overflow value
		{math.MaxInt64, NumBuckets - 1}, // clamps
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every non-overflow bucket's bound must contain the values bucketOf
	// routes to it: BucketBound(k-1) < v <= BucketBound(k).
	for _, c := range cases {
		if c.v <= 0 || c.want >= NumBuckets-1 {
			continue
		}
		hi := BucketBound(c.want)
		if float64(c.v) > hi {
			t.Errorf("value %d lands in bucket %d but exceeds its bound %g", c.v, c.want, hi)
		}
		if c.want > 0 {
			if lo := BucketBound(c.want - 1); float64(c.v) <= lo {
				t.Errorf("value %d lands in bucket %d but fits bucket %d (bound %g)", c.v, c.want, c.want-1, lo)
			}
		}
	}
	if !math.IsInf(BucketBound(NumBuckets-1), 1) {
		t.Errorf("last bucket bound = %g, want +Inf", BucketBound(NumBuckets-1))
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := newHistogram(ScaleNone)
	for _, v := range []int64{1, 2, 3, 8, 9, 1000, -7} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Sum != 1+2+3+8+9+1000+0 {
		t.Fatalf("sum = %d, want 1023", s.Sum)
	}
	wantBuckets := map[int]int64{0: 2, 1: 1, 2: 1, 3: 1, 4: 1, 10: 1}
	for k, n := range wantBuckets {
		if s.Buckets[k] != n {
			t.Errorf("bucket %d = %d, want %d", k, s.Buckets[k], n)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := newHistogram(ScaleNanos), newHistogram(ScaleNanos)
	a.Observe(100)
	a.Observe(200)
	b.Observe(300)

	var acc HistSnapshot
	acc.Merge(a.Snapshot())
	acc.Merge(b.Snapshot())
	if acc.Count != 3 || acc.Sum != 600 {
		t.Fatalf("merged count/sum = %d/%d, want 3/600", acc.Count, acc.Sum)
	}
	for k := range acc.Buckets {
		want := a.Snapshot().Buckets[k] + b.Snapshot().Buckets[k]
		if acc.Buckets[k] != want {
			t.Errorf("merged bucket %d = %d, want %d", k, acc.Buckets[k], want)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched scales should panic")
		}
	}()
	other := newHistogram(ScaleNone)
	other.Observe(1)
	acc.Merge(other.Snapshot())
}

func TestHistogramQuantileAndMean(t *testing.T) {
	h := newHistogram(ScaleNone)
	for i := 0; i < 100; i++ {
		h.Observe(100) // bucket 7: (64, 128]
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.5)
	if p50 <= 64 || p50 > 128 {
		t.Errorf("p50 = %g, want within (64, 128]", p50)
	}
	if m := s.Mean(); m != 100 {
		t.Errorf("mean = %g, want 100", m)
	}
	// Scaled export: nanoseconds out as seconds.
	hn := newHistogram(ScaleNanos)
	hn.Observe(int64(time.Second))
	sn := hn.Snapshot()
	if m := sn.Mean(); m != 1.0 {
		t.Errorf("scaled mean = %g, want 1.0", m)
	}
	if q := sn.Quantile(0.5); q <= 0 || q > 2 {
		t.Errorf("scaled p50 = %g, want within (0, 2]", q)
	}
	var empty HistSnapshot
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot quantile/mean should be 0")
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", ScaleNone)
	var tr Trace

	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(seed + int64(i%64))
				tr.Add(StageMatch, time.Nanosecond)
			}
		}(int64(w))
	}
	// Concurrent readers while the writers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = h.Snapshot()
			var buf bytes.Buffer
			_ = r.WritePrometheus(&buf)
			_ = r.Snapshot()
			tr.Each(func(Stage, time.Duration) {})
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	if got := tr.Get(StageMatch); got != workers*iters {
		t.Errorf("trace match = %d, want %d", got, workers*iters)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Trace
	var cv *CounterVec
	var hv *HistogramVec
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(7)
	h.ObserveDuration(7)
	tr.Reset()
	tr.Add(StageDecode, time.Second)
	tr.Set(StageDecode, time.Second)
	tr.Each(func(Stage, time.Duration) { t.Fatal("nil trace iterated") })
	if cv.With("x") != nil || hv.With("x") != nil {
		t.Fatal("nil vec With should return nil")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Get(StageDecode) != 0 {
		t.Fatal("nil handles should read as zero")
	}
	if tr.MSMap() != nil {
		t.Fatal("nil trace MSMap should be nil")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.Scale != ScaleNone {
		t.Fatal("nil histogram snapshot should be empty with ScaleNone")
	}
}

func TestRegistryIdempotentAndShapeChecked(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("requests_total", "reqs")
	c2 := r.Counter("requests_total", "reqs")
	if c1 != c2 {
		t.Fatal("re-registering a counter should return the same cell")
	}
	v1 := r.CounterVec("by_ep_total", "", "endpoint", "classify", "detect")
	v2 := r.CounterVec("by_ep_total", "", "endpoint", "classify", "detect")
	if v1.With("classify") != v2.With("classify") {
		t.Fatal("re-registering a vec should share cells")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind mismatch should panic")
			}
		}()
		r.Gauge("requests_total", "")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("label value mismatch should panic")
			}
		}()
		r.CounterVec("by_ep_total", "", "endpoint", "classify", "other")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown label value should panic")
			}
		}()
		v1.With("nope")
	}()
}

func TestPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("snm_requests_total", "Total requests.").Add(3)
	r.Gauge("snm_depth", "Queue depth.").Set(2)
	cv := r.CounterVec("snm_errors_total", "Errors by endpoint.", "endpoint", "classify", "detect")
	cv.With("classify").Add(1)
	h := r.Histogram("snm_latency_seconds", "Latency.", ScaleNanos)
	h.Observe(int64(time.Millisecond)) // 1e6 ns -> le 1048576ns = ~0.00105s
	r.CounterFunc("snm_cb_total", "Callback counter.", func() int64 { return 42 })
	r.GaugeFunc("snm_cb_gauge", "Callback gauge.", func() int64 { return -7 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP snm_requests_total Total requests.",
		"# TYPE snm_requests_total counter",
		"snm_requests_total 3",
		"# TYPE snm_depth gauge",
		"snm_depth 2",
		`snm_errors_total{endpoint="classify"} 1`,
		`snm_errors_total{endpoint="detect"} 0`,
		"# TYPE snm_latency_seconds histogram",
		`snm_latency_seconds_bucket{le="+Inf"} 1`,
		"snm_latency_seconds_count 1",
		"snm_latency_seconds_sum 0.001",
		"snm_cb_total 42",
		"snm_cb_gauge -7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n--- got:\n%s", want, out)
		}
	}
	// The cumulative bucket series must be monotone and end at count.
	if !strings.Contains(out, "_bucket{le=") {
		t.Error("no bucket series rendered")
	}
}

func TestStatzOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(5)
	r.Gauge("b", "").Set(-3)
	hv := r.HistogramVec("lat_seconds", "", ScaleNanos, "endpoint", "classify")
	hv.With("classify").Observe(int64(2 * time.Millisecond))

	st := r.Snapshot()
	if st.Counters["a_total"] != 5 {
		t.Errorf("statz counter = %d, want 5", st.Counters["a_total"])
	}
	if st.Gauges["b"] != -3 {
		t.Errorf("statz gauge = %d, want -3", st.Gauges["b"])
	}
	key := `lat_seconds{endpoint="classify"}`
	hs, ok := st.Histograms[key]
	if !ok {
		t.Fatalf("statz missing %q; have %v", key, r.SortedSampleKeys())
	}
	if hs.Count != 1 || hs.Mean != 0.002 {
		t.Errorf("statz histogram = %+v, want count 1 mean 0.002", hs)
	}

	var buf bytes.Buffer
	if err := r.WriteStatz(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"counters"`, `"a_total": 5`, `"p99"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("statz JSON missing %q\n--- got:\n%s", want, buf.String())
		}
	}
}

func TestTrace(t *testing.T) {
	var tr Trace
	tr.Add(StageExtract, 3*time.Millisecond)
	tr.Add(StageExtract, 2*time.Millisecond)
	tr.Set(StageDecode, time.Millisecond)
	if got := tr.Get(StageExtract); got != 5*time.Millisecond {
		t.Errorf("extract = %v, want 5ms", got)
	}
	var order []Stage
	tr.Each(func(s Stage, d time.Duration) { order = append(order, s) })
	if len(order) != 2 || order[0] != StageDecode || order[1] != StageExtract {
		t.Errorf("Each order = %v, want [decode extract]", order)
	}
	m := tr.MSMap()
	if m["decode"] != 1 || m["extract"] != 5 {
		t.Errorf("MSMap = %v", m)
	}
	tr.Reset()
	if tr.Get(StageExtract) != 0 {
		t.Error("Reset did not zero")
	}
	if len(StageNames()) != NumStages {
		t.Errorf("StageNames length %d != NumStages %d", len(StageNames()), NumStages)
	}
	if StageMatch.String() != "match" || Stage(200).String() != "unknown" {
		t.Error("Stage.String wrong")
	}
}
