package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"snmatch/internal/geom"
	"snmatch/internal/serve/snapshot"
	"snmatch/internal/synth"
)

func TestSameSeedSameScheduleAndOrder(t *testing.T) {
	a, b := schedule(7, 250, 5), schedule(7, 250, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different arrival schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 250, 5)) {
		t.Fatal("different seeds drew the same arrival schedule")
	}
	// A Poisson process at 250/s over 5 s: about 1250 arrivals, in order.
	if n := len(a); n < 1100 || n > 1400 {
		t.Fatalf("%d arrivals, want about 1250", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 5 {
			t.Fatalf("arrival %d at %v after %v", i, a[i], a[i-1])
		}
	}
	if !reflect.DeepEqual(order(7, 100), order(7, 100)) {
		t.Fatal("same seed drew different request orders")
	}
	if reflect.DeepEqual(order(7, 100), order(8, 100)) {
		t.Fatal("different seeds drew the same request order")
	}
}

func TestWorkloadContentIsReproducible(t *testing.T) {
	for _, name := range []string{"classify-orb-small", "detect-scenes"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b := w.build(), w.build()
		if len(a.inputs) != len(b.inputs) || len(a.inputs) == 0 {
			t.Fatalf("%s: %d vs %d inputs", name, len(a.inputs), len(b.inputs))
		}
		for i := range a.inputs {
			if !bytes.Equal(a.inputs[i].body, b.inputs[i].body) || a.inputs[i].class != b.inputs[i].class ||
				!reflect.DeepEqual(a.inputs[i].objects, b.inputs[i].objects) {
				t.Fatalf("%s: input %d differs between builds", name, i)
			}
		}
		var sa, sb bytes.Buffer
		for _, p := range []struct {
			fx  fixture
			buf *bytes.Buffer
		}{{a, &sa}, {b, &sb}} {
			if err := snapshot.Write(p.buf, &snapshot.Snapshot{Name: p.fx.meta.Dataset, Meta: p.fx.meta, Gallery: p.fx.gallery}); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
			t.Fatalf("%s: snapshots differ between builds", name)
		}
	}
}

func TestMaxPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {2000, 99.5}, {100, 90}, {10, 0}, {9, 0}} {
		if got := maxPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("maxPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if maxPercentile(999) >= 99 {
		t.Error("999 samples must not support p99")
	}
	for _, n := range []int{11, 57, 100, 999, 1000, 1001, 4321} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // distinct, unsorted
		}
		p := maxPercentile(n)
		v := percentile(xs, p)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d: p%.2f = %v leaves %d samples beyond, want >= %d", n, p, v, beyond, tailBeyond)
		}
		// The next sample up would leave fewer than ten: p is the highest.
		if beyond != tailBeyond {
			t.Errorf("n=%d: p%.2f leaves %d beyond, want exactly %d", n, p, beyond, tailBeyond)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles = %v, %v, want 1, 3", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"leaf", []span{{ID: 1, Start: 0, End: 10}}, []int64{10}},
		{"disjoint children", []span{
			{ID: 1, Start: 0, End: 100},
			{ID: 2, Parent: 1, Start: 10, End: 20},
			{ID: 3, Parent: 1, Start: 50, End: 80},
		}, []int64{60, 10, 30}},
		{"overlapping children count once", []span{
			{ID: 1, Start: 0, End: 100},
			{ID: 2, Parent: 1, Start: 10, End: 60},
			{ID: 3, Parent: 1, Start: 40, End: 70},
		}, []int64{40, 50, 30}},
		{"child nested in a sibling", []span{
			{ID: 1, Start: 0, End: 100},
			{ID: 2, Parent: 1, Start: 10, End: 90},
			{ID: 3, Parent: 1, Start: 20, End: 30},
		}, []int64{20, 80, 10}},
		{"grandchildren belong to their parent", []span{
			{ID: 1, Start: 0, End: 100},
			{ID: 2, Parent: 1, Start: 10, End: 50},
			{ID: 3, Parent: 2, Start: 20, End: 40},
		}, []int64{60, 20, 20}},
		{"child past the parent's end is clipped", []span{
			{ID: 1, Start: 0, End: 100},
			{ID: 2, Parent: 1, Start: 90, End: 130},
		}, []int64{90, 40}},
		{"children out of start order", []span{
			{ID: 1, Start: 0, End: 100},
			{ID: 2, Parent: 1, Start: 60, End: 70},
			{ID: 3, Parent: 1, Start: 5, End: 65},
		}, []int64{35, 10, 60}},
	} {
		if got := selfTimes(c.spans); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var off tracer
	if id := off.begin("x", 0, 0); id != 0 {
		t.Fatalf("off tracer returned span id %d", id)
	}
	off.end(0)
	if len(off.spans) != 0 {
		t.Fatal("off tracer kept spans")
	}
}

func TestParseCapturedMetrics(t *testing.T) {
	raw, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseProm(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		`snmatch_requests_total{endpoint="classify"}`:        3,
		`snmatch_request_seconds_count{endpoint="classify"}`: 3,
		`snmatch_stage_seconds_count{stage="queue"}`:         3,
		`snmatch_batch_size_count`:                           3,
		`snmatch_batch_size_sum`:                             3,
		`snmatch_ctx_pool_misses_total`:                      2,
		`snmatch_ctx_pool_hits_total`:                        1,
		`snmatch_errors_total{endpoint="classify"}`:          0,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if s := m[`snmatch_request_seconds_sum{endpoint="classify"}`]; s <= 0 || s > 1 {
		t.Errorf("request seconds sum %v, want a small positive number of seconds", s)
	}
	if _, err := parseProm(bytes.NewReader([]byte("snmatch_x{a=\"b\"} notanumber\n"))); err == nil {
		t.Error("malformed value parsed without error")
	}
}

func TestVerifyComparesExactly(t *testing.T) {
	want := answer{regions: []region{{class: synth.Chair, view: 7, score: 12}}}
	ok := []byte(`{"predictions":[{"class":"Chair","class_id":0,"view":7,"score":12,"latency_ms":3.1}]}`)
	if err := verify(ok, want, false); err != nil {
		t.Fatalf("matching answer rejected: %v", err)
	}
	for _, bad := range []string{
		`{"predictions":[{"class":"Chair","class_id":0,"view":7,"score":12.000001}]}`,
		`{"predictions":[{"class":"Chair","class_id":0,"view":8,"score":12}]}`,
		`{"predictions":[]}`,
		`not json`,
	} {
		if err := verify([]byte(bad), want, false); err == nil {
			t.Errorf("wrong answer %s accepted", bad)
		}
	}
	det := answer{regions: []region{{box: geom.R(10, 20, 40, 60), class: synth.Bottle, view: 3, score: 0.25}}}
	body := func(x int) []byte {
		return []byte(`{"regions":[{"box":{"x":` + string(rune('0'+x)) + `0,"y":20,"w":30,"h":40},"class":"Bottle","class_id":1,"view":3,"score":0.25}]}`)
	}
	if err := verify(body(1), det, true); err != nil {
		t.Fatalf("matching detection rejected: %v", err)
	}
	if err := verify(body(2), det, true); err == nil {
		t.Error("detection with a moved box accepted")
	}
}

func TestRepeatShareAfter(t *testing.T) {
	// Warm-up sends 0 and 1; the timed part sends 1, 2, 2, 0.
	if got := repeatShareAfter([]int{0, 1, 1, 2, 2, 0}, 2); got != 0.75 {
		t.Fatalf("repeat share %v, want 0.75", got)
	}
}

func TestLoaderKeepsScheduleAndOrder(t *testing.T) {
	var mu sync.Mutex
	got := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		got[string(b)]++
		mu.Unlock()
		w.Write(b)
	}))
	defer srv.Close()
	inputs := []input{{body: []byte("a")}, {body: []byte("b")}, {body: []byte("c")}}
	ld := newLoader(srv.URL, inputs, []int{2, 0, 1}, 2)
	defer ld.client.CloseIdleConnections()
	ld.pos = 1

	due := schedule(3, 400, 0.25)
	open := ld.openLoop(due)
	if len(open) != len(due) {
		t.Fatalf("%d results for %d arrivals", len(open), len(due))
	}
	for i := range open {
		r := &open[i]
		if want := []int{2, 0, 1}[(1+i)%3]; !r.ok() || r.input != want || string(r.body) != string(inputs[want].body) {
			t.Fatalf("request %d: input %d status %d err %v, want input %d answered", i, r.input, r.status, r.err, want)
		}
		if r.sent.Before(r.due) || r.done.Before(r.sent) {
			t.Fatalf("request %d sent before it was due or done before sent", i)
		}
	}
	closed := ld.closedLoop(50 * time.Millisecond)
	if len(closed) == 0 || ld.pos != 1+len(due)+len(closed) {
		t.Fatalf("closed loop sent %d, cycle position %d", len(closed), ld.pos)
	}
	for i := range closed {
		if !closed[i].ok() {
			t.Fatalf("closed-loop request %d failed: %v", i, closed[i].err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if total := got["a"] + got["b"] + got["c"]; total != len(open)+len(closed) {
		t.Fatalf("server saw %d requests, generator sent %d", total, len(open)+len(closed))
	}
}

func TestRoundAndBlockStatistics(t *testing.T) {
	// Three rounds whose medians are 1, 5 and 9.
	if got := roundP50s([]float64{1, 1, 9, 5, 5, 5, 9, 9, 1}, []int{3, 3, 3}); !reflect.DeepEqual(got, []float64{1, 5, 9}) {
		t.Fatalf("roundP50s = %v, want [1 5 9]", got)
	}
	// Ten rounds, seven of them slowed by a spell: the reading still
	// comes from calm rounds (statistics.quantiles gives 10.0).
	spell := []float64{10, 11, 10, 12, 11, 10, 12, 11, 10, 11}
	for _, r := range []int{0, 1, 3, 4, 6, 7, 9} {
		spell[r] += 30
	}
	if got := quietRounds(spell, true); got != 10 {
		t.Fatalf("quiet latency %v under a slow spell, want 10", got)
	}
	// statistics.quantiles(qps, n=4)[2] == 501.25
	qps := []float64{500, 480, 200, 510, 490, 150, 505, 495, 100, 500}
	if got := quietRounds(qps, false); got != 501.25 {
		t.Fatalf("quiet throughput %v, want 501.25", got)
	}
	// 3000 samples make three blocks; one slow block does not set the tail.
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i % 1000) // each block spans 0..999: p99 = 989
	}
	for i := 2000; i < 3000; i++ {
		xs[i] += 1000
	}
	if got := blockP99(xs); got != 989 {
		t.Fatalf("blockP99 = %v, want 989", got)
	}
	if name, v := tail(xs); name != "p99_ms" || v != 989 {
		t.Fatalf("tail = %s %v, want p99_ms 989", name, v)
	}
	// 560 samples support p98.2 at most; p98 leaves eleven beyond it.
	name, v := tail(xs[:560])
	beyond := 0
	for _, x := range xs[:560] {
		if x > v {
			beyond++
		}
	}
	if name != "p98_ms" || beyond != 11 {
		t.Fatalf("tail of 560 = %s %v with %d beyond, want p98_ms with 11 beyond", name, v, beyond)
	}
}
