// Command snbench is the repository benchmark: it boots real snserve
// processes and drives them over HTTP from one load-generator process,
// checks every answer against an in-process reference, and prints the
// end-to-end metrics; a traced run adds per-layer numbers.
//
// Run it from the repository root through its wrapper, which builds
// snbench and cmd/snserve from the working tree first:
//
//	bash snbench/run.sh --workload classify-orb-small --seed 1 --seconds 30 --trace 0
//	bash snbench/run.sh --workload detect-scenes --seed 1 --seconds 30 --trace 1
//	bash snbench/run.sh --summarize .bench_build/records
//
// One run, for one workload and seed:
//
//  1. generates the workload's gallery snapshot and distinct request
//     inputs (fixed per workload), orders the inputs and draws the
//     arrival schedule from the seed, and computes every input's
//     reference answer in-process on the gallery loaded from the
//     snapshot;
//  2. boots snserve on the snapshot several times, timing exec to the
//     first correct answer (setup_s is the median), and keeps the last
//     process;
//  3. warms it up untimed, then interleaves rounds of an open-loop
//     slice (seeded Poisson arrivals at the workload's fixed rate;
//     latency counts from each request's due time) and a closed-loop
//     slice (one client per connection, back to back), scraping
//     /metrics and reading /proc/<pid> between slices;
//  4. compares every kept response body with its reference answer.
//
// With --trace 1 the run also replays every distinct input serially
// in-process through each layer's public functions with spans on, then
// with spans off, and reports per-layer self times plus the tracing
// overhead. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A wrong answer makes
// the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"snmatch/internal/serve/snapshot"
)

// Run shape. The generator holds at most nproc connections, so a
// server-side batch holds at most nproc queries.
const (
	setupBoots  = 15   // boots per run; setup_s is their median
	openShare   = 0.8  // share of --seconds spent in open-loop slices
	warmSeconds = 1.0  // untimed closed-loop warm-up before the phases
	minTailN    = 1000 // open-loop samples p99 needs (ten beyond it)
	// lateShare flags a run whose generator lag p99 exceeds this share
	// of the mean gap between arrivals: arrivals then bunch up and the
	// offered load no longer has the schedule's shape.
	lateShare = 0.5
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
	snserve  string
}

func main() {
	var cfg config
	var traceFlag int
	var summarize string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: classify-sift-large, classify-orb-small or detect-scenes")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the request order and the open-loop arrival schedule")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds: the open-loop plus the closed-loop slices")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds the traced in-process replay and prints per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout; run files go under its .bench_build")
	flag.StringVar(&cfg.snserve, "snserve", "", "snserve binary built from the checkout")
	flag.StringVar(&summarize, "summarize", "", "print median and quartiles of the run records in this directory, then exit")
	flag.Parse()
	if summarize != "" {
		if err := summarizeRecords(os.Stdout, summarize); err != nil {
			fatal(err)
		}
		return
	}
	cfg.trace = traceFlag == 1
	if cfg.snserve == "" || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fatal(fmt.Errorf("need -snserve, -seconds > 0 and -trace 0 or 1"))
	}
	rec, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	printRecord(os.Stdout, rec)
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snbench:", err)
	os.Exit(2)
}

func run(cfg config) (*record, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(cfg.root, ".bench_build")
	dir := filepath.Join(build, "runs", fmt.Sprintf("%s-seed%d-%d", w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rec := &record{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Machine: machine(cfg.root)}

	fx := w.build()
	snapPath := filepath.Join(dir, "gallery.snap")
	defer os.Remove(snapPath)
	ref, err := prepare(w, fx, snapPath, rec)
	if err != nil {
		return nil, err
	}
	fx.gallery = nil
	runtime.GC() // leave the generator a small heap for the timed phases
	seq := order(cfg.seed, len(fx.inputs))
	logf, err := os.Create(filepath.Join(dir, "snserve.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()

	// Set-up: several boots, the last one kept for the phases. Boot k
	// answers input k first whatever the seed, so setup_s does not
	// depend on how costly the input a seed orders first happens to be.
	var srv *server
	setups := make([]float64, 0, setupBoots)
	for k := 0; k < setupBoots; k++ {
		first := k % len(fx.inputs)
		check := func(b []byte) error { return verify(b, ref[first], w.detect) }
		s, d, err := boot(cfg.snserve, snapPath, w.mmap, logf, w.path, fx.inputs[first].body, check)
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", k, err)
		}
		setups = append(setups, d.Seconds())
		if k < setupBoots-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	ld := newLoader(srv.base+w.path, fx.inputs, seq, rec.Load.Conns)
	m, err := measure(srv, ld, cfg.seed, w.rate, cfg.seconds)
	ld.client.CloseIdleConnections()
	if err != nil {
		return nil, err
	}
	hwm, err := procMiB(strconv.Itoa(srv.pid()), "VmHWM")
	if err != nil {
		return nil, err
	}
	srv.stop()

	// Correctness, after the server is gone so checking costs it nothing.
	sc := score(w, rec, ref, m)
	timed := []int{(setupBoots - 1) % len(fx.inputs)} // the kept boot's request
	for _, rs := range [][]result{m.warm, m.open, m.closed} {
		for i := range rs {
			timed = append(timed, rs[i].input)
		}
	}
	rec.Load.RepeatShare = repeatShareAfter(timed, 1+len(m.warm))

	rec.Rounds = roundsRecord{P50MS: roundP50s(sc.lat, m.openRounds), QPS: m.closedQPS, Steal: m.roundSteal}
	failPct := 100 * float64(rec.Failed) / float64(rec.Attempted)
	tailName, tailMS := tail(sc.lat)
	rec.EndToEnd = map[string]metric{
		"setup_s":  {median(setups), "s", len(setups)},
		"p50_ms":   {quietRounds(rec.Rounds.P50MS, true), "ms", len(sc.lat)},
		tailName:   {tailMS, "ms", len(sc.lat)},
		"peak_qps": {quietRounds(m.closedQPS, false), "req/s", sc.closedOK},
		"fail_pct": {failPct, "%", rec.Attempted},
		"ok_pct":   {100 - failPct, "%", rec.Attempted},
		"accuracy": {accuracy(w, fx.inputs, ref), "share", len(fx.inputs)},
		// The peak is one extreme sample: whether a garbage collection
		// happens to mark several requests' buffers live moves it by a
		// quarter from run to run. The median resident set over the
		// slices moves far less, so it is the gated memory metric.
		"rss_mb":      {median(m.rss), "MiB", len(m.rss)},
		"peak_rss_mb": {hwm, "MiB", 1},
	}
	lagP99 := percentile(sc.lag, 99)
	rec.Generator = generatorRecord{
		LagP99MS:   lagP99,
		CPUShare:   m.genCPU.Seconds() / (m.wall.Seconds() * float64(runtime.NumCPU())),
		StealShare: float64(m.steal) / float64(max(m.ticks, 1)),
		Late:       lagP99 > lateShare*1000/w.rate,
	}
	if cfg.trace {
		rec.SpanFile = filepath.Join(dir, "spans.json")
		if rec.PerLayer, err = layers(w, fx.inputs, snapPath, rec.SpanFile, m, sc); err != nil {
			return nil, err
		}
	}

	recDir := filepath.Join(build, "records")
	if err := os.MkdirAll(recDir, 0o755); err != nil {
		return nil, err
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-trace%d-seed%d-%d.json", w.name, b2i(cfg.trace), cfg.seed, time.Now().UnixNano())
	return rec, os.WriteFile(filepath.Join(recDir, name), raw, 0o644)
}

// prepare saves the workload's gallery as the run's snapshot, loads it
// back, computes every input's reference answer on the loaded gallery,
// and fills the workload part of the record.
func prepare(w workload, fx fixture, snapPath string, rec *record) ([]answer, error) {
	if err := snapshot.Save(snapPath, &snapshot.Snapshot{Name: fx.meta.Dataset, Meta: fx.meta, Gallery: fx.gallery}); err != nil {
		return nil, err
	}
	snap, err := snapshot.Load(snapPath)
	if err != nil {
		return nil, err
	}
	ref, err := reference(w, snap.Gallery, fx.inputs)
	if err != nil {
		return nil, fmt.Errorf("reference answers: %w", err)
	}
	rows := 0
	for _, k := range snap.Gallery.IndexedKinds() {
		n, _ := snap.Gallery.IndexStats(k)
		rows += n
	}
	mode := "heap"
	if w.mmap {
		mode = "mmap"
	}
	body := 0
	for _, in := range fx.inputs {
		body += len(in.body)
	}
	rec.Load = loadRecord{
		Why: w.why, Endpoint: "POST " + w.path, SnapshotMode: mode,
		GalleryViews: snap.Gallery.Len(), IndexedRows: rows, QuerySize: fx.querySize,
		Distinct: len(fx.inputs), BodyBytes: float64(body) / float64(len(fx.inputs)),
		RatePerSec: w.rate, Conns: runtime.NumCPU(),
	}
	return ref, nil
}

// scored is what the correctness pass extracts from the phases.
type scored struct {
	lat        []float64 // open-loop latency from due time, send order; +Inf when failed
	lag        []float64 // dispatch minus due, for requests that found a free connection
	sendToDone []float64 // open-loop latency from the actual send, successes only
	closedOK   int
}

// score checks every kept response against its reference answer and
// counts attempts and failures over both phases into rec. Warm-up
// answers are checked too but not counted.
func score(w workload, rec *record, ref []answer, m *measurement) scored {
	rec.Correct = true
	bad := func(r *result) bool {
		if !r.ok() {
			return true
		}
		if err := verify(r.body, ref[r.input], w.detect); err != nil {
			rec.Correct = false
			if len(rec.Mismatch) < 5 {
				rec.Mismatch = append(rec.Mismatch, fmt.Sprintf("input %d: %v", r.input, err))
			}
			return true
		}
		return false
	}
	for i := range m.warm {
		if m.warm[i].ok() {
			bad(&m.warm[i])
		}
	}
	var sc scored
	for i := range m.open {
		r := &m.open[i]
		if bad(r) {
			rec.Failed++
			sc.lat = append(sc.lat, math.Inf(1)) // a failed request misses every latency limit
			continue
		}
		sc.lat = append(sc.lat, ms(r.done.Sub(r.due)))
		sc.sendToDone = append(sc.sendToDone, ms(r.done.Sub(r.sent)))
		if r.idle {
			sc.lag = append(sc.lag, ms(r.sent.Sub(r.due)))
		}
	}
	for i := range m.closed {
		if bad(&m.closed[i]) {
			rec.Failed++
		} else {
			sc.closedOK++
		}
	}
	rec.Attempted = len(m.open) + len(m.closed)
	rec.Succeeded = rec.Attempted - rec.Failed
	return sc
}

// layers computes the per-layer metrics: server readings from the
// /metrics deltas and /proc, client-side transport and generator lag,
// and the traced replay's self times.
func layers(w workload, inputs []input, snapPath, spanPath string, m *measurement, sc scored) (map[string]metric, error) {
	ep := "classify"
	if w.detect {
		ep = "detect"
	}
	od := m.openDelta
	meanOf := func(name, label string) (float64, int) {
		n := od[name+"_count"+label]
		if n == 0 {
			return 0, 0
		}
		return od[name+"_sum"+label] / n, int(n)
	}
	serverS, nServer := meanOf("snmatch_request_seconds", `{endpoint="`+ep+`"}`)
	queueS, nQueue := meanOf("snmatch_stage_seconds", `{stage="queue"}`)
	matchS, nMatch := meanOf("snmatch_stage_seconds", `{stage="match"}`)
	batch, nBatch := meanOf("snmatch_batch_size", "")
	hits, misses := od["snmatch_ctx_pool_hits_total"], od["snmatch_ctx_pool_misses_total"]
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	// The issue-defined failure sum; a refused request can tick both
	// the endpoint's error counter and the refusal's own counter.
	failures := 0.0
	for _, series := range []string{
		`snmatch_errors_total{endpoint="` + ep + `"}`, "snmatch_admission_rejects_total",
		"snmatch_batch_sheds_total", "snmatch_deadline_exceeded_total", "snmatch_panics_total",
	} {
		failures += m.allDelta[series]
	}
	pl := map[string]metric{
		"serve.server_ms":             {1000 * serverS, "ms", nServer},
		"serve.queue_ms":              {1000 * queueS, "ms", nQueue},
		"serve.batch_size":            {batch, "count", nBatch},
		"serve.match_cpu_ms":          {1000 * matchS, "ms", nMatch},
		"serve.failures":              {failures, "count", len(m.open) + len(m.closed)},
		"pipeline.ctx_pool_hit_ratio": {hitRatio, "share", int(hits + misses)},
		"snserve.cpu_ms":              {ms(m.closedCPU) / float64(max(sc.closedOK, 1)), "ms", sc.closedOK},
		"transport.gap_ms":            {mean(sc.sendToDone) - 1000*serverS, "ms", len(sc.sendToDone)},
		"loadgen.lag_ms":              {percentile(sc.lag, 99), "ms", len(sc.lag)},
	}

	st, err := replay(w, snapPath, inputs, spanPath)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	for name, span := range map[string]string{
		"imaging.decode_ms":          "imaging.decode",
		"features.extract_ms":        "features.extract",
		"pipeline.match_ms":          "pipeline.match",
		"pipeline.shard_classify_ms": "pipeline.shard_classify",
		"pipeline.propose_ms":        "pipeline.propose",
		"pipeline.crop_classify_ms":  "pipeline.crop_classify",
		"snapshot.open_ms":           "snapshot.open",
	} {
		pl[name] = metric{st.selfMS[span], "ms", st.calls[span]}
	}
	n := len(inputs)
	pl["features.descriptors"] = metric{st.descriptors, "count", st.calls["features.extract"]}
	pl["pipeline.regions"] = metric{st.regions, "count", st.calls["pipeline.propose"]}
	pl["pipeline.region_precision"] = metric{st.precision, "share", int(math.Round(st.regions * float64(n)))}
	pl["trace.overhead_pct"] = metric{st.overheadPct, "%", n}
	return pl, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// repeatShareAfter is the share of seq[from:] whose input already
// appeared earlier in seq.
func repeatShareAfter(seq []int, from int) float64 {
	if from >= len(seq) {
		return 0
	}
	seen := map[int]bool{}
	rep := 0
	for i, k := range seq {
		if i >= from && seen[k] {
			rep++
		}
		seen[k] = true
	}
	return float64(rep) / float64(len(seq)-from)
}
