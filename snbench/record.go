package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one named number of a run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"` // samples behind the value
}

// record is everything one run measured; it is written as JSON under
// .bench_build/records and summarised across runs by --summarize.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
	Mismatch  []string          `json:"mismatches,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Rounds    roundsRecord      `json:"rounds"`
	Generator generatorRecord   `json:"generator"`
	Load      loadRecord        `json:"workload_record"`
	Machine   machineRecord     `json:"machine"`
	SpanFile  string            `json:"span_file,omitempty"`
}

// roundsRecord keeps the per-round readings p50_ms and peak_qps are
// taken from, so a run's own spread can be judged.
type roundsRecord struct {
	P50MS []float64 `json:"p50_ms"`   // open-loop median latency per round
	QPS   []float64 `json:"peak_qps"` // closed-loop correct answers per second per round
	Steal []float64 `json:"steal"`    // share of machine CPU time stolen per round
}

type generatorRecord struct {
	LagP99MS   float64 `json:"lag_p99_ms"`  // dispatch minus due, requests that found a free connection
	CPUShare   float64 `json:"cpu_share"`   // generator CPU over wall time x nproc, both phases
	StealShare float64 `json:"steal_share"` // machine CPU time stolen by the hypervisor, both phases
	Late       bool    `json:"late"`        // lag p99 above lateShare of the mean arrival gap: the run is suspect
}

type loadRecord struct {
	Why          string  `json:"why"`
	Endpoint     string  `json:"endpoint"`
	SnapshotMode string  `json:"snapshot_mode"`
	GalleryViews int     `json:"gallery_views"`
	IndexedRows  int     `json:"indexed_rows"`
	QuerySize    string  `json:"query_size"`
	Distinct     int     `json:"distinct_inputs"`
	BodyBytes    float64 `json:"mean_body_bytes"`
	RatePerSec   float64 `json:"rate_per_s"`
	Conns        int     `json:"connections"`
	RepeatShare  float64 `json:"repeat_share"` // timed requests whose body an earlier request carried
}

type machineRecord struct {
	CPU               string `json:"cpu"`
	NProc             int    `json:"nproc"`
	GeneratorMaxProcs int    `json:"generator_gomaxprocs"`
	SnserveMaxProcs   int    `json:"snserve_gomaxprocs"`
	Go                string `json:"go"`
	Source            string `json:"source"` // sha256 of the checkout's Go sources
}

// endToEndOut and perLayerOut are the metrics the result line carries,
// in BENCHMARK.json's order. Three end-to-end metrics are printed above
// the line but left off it: fail_pct, which is 0 on a healthy run (the
// line carries its complement ok_pct), and the tail latency (p99_ms,
// or a lower percentile on a short run; see tail) and peak_rss_mb,
// whose run-to-run spread on a shared 2-vCPU VM exceeds any bound
// BENCHMARK.json allows.
var (
	endToEndOut = []string{"setup_s", "p50_ms", "peak_qps", "ok_pct", "accuracy", "rss_mb"}
	perLayerOut = []string{
		"imaging.decode_ms", "features.extract_ms", "features.descriptors", "pipeline.match_ms",
		"pipeline.shard_classify_ms", "pipeline.propose_ms", "pipeline.regions",
		"pipeline.region_precision", "pipeline.crop_classify_ms", "pipeline.ctx_pool_hit_ratio",
		"snapshot.open_ms", "serve.server_ms", "serve.queue_ms", "serve.batch_size",
		"serve.match_cpu_ms", "serve.failures", "snserve.cpu_ms", "transport.gap_ms",
		"loadgen.lag_ms", "trace.overhead_pct",
	}
)

// printRecord writes the human-readable table and then the result line.
func printRecord(out io.Writer, rec *record) {
	fmt.Fprintf(out, "snbench %s seed=%d seconds=%g trace=%v: %d attempted, %d succeeded, %d failed, correct=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Attempted, rec.Succeeded, rec.Failed, rec.Correct)
	for _, m := range rec.Mismatch {
		fmt.Fprintln(out, "  mismatch:", m)
	}
	table := func(title string, ms map[string]metric) {
		fmt.Fprintln(out, title)
		for _, k := range sortedKeys(ms) {
			fmt.Fprintf(out, "  %-28s %12.4f %-6s n=%d\n", k, ms[k].Value, ms[k].Unit, ms[k].N)
		}
	}
	table("end to end:", rec.EndToEnd)
	if rec.PerLayer != nil {
		table("per layer:", rec.PerLayer)
	}
	g, l := rec.Generator, rec.Load
	fmt.Fprintf(out, "generator: lag p99 %.3f ms, cpu share %.3f, steal share %.4f, late=%v\n",
		g.LagP99MS, g.CPUShare, g.StealShare, g.Late)
	fmt.Fprintf(out, "workload: %d views, %d indexed rows, %d distinct %s inputs, %.0f req/s over %d connections, %s snapshot, repeat share %.3f\n",
		l.GalleryViews, l.IndexedRows, l.Distinct, l.QuerySize, l.RatePerSec, l.Conns, l.SnapshotMode, l.RepeatShare)
	fmt.Fprintf(out, "machine: %s, nproc %d, GOMAXPROCS %d (snserve %d), %s, source %s\n",
		rec.Machine.CPU, rec.Machine.NProc, rec.Machine.GeneratorMaxProcs, rec.Machine.SnserveMaxProcs, rec.Machine.Go, rec.Machine.Source)

	type outMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src, names := rec.EndToEnd, endToEndOut
	if rec.Trace {
		src, names = rec.PerLayer, perLayerOut
	}
	metrics := map[string]outMetric{}
	for _, n := range names {
		metrics[n] = outMetric{src[n].Value, src[n].Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	fmt.Fprintln(out, string(line))
}

// machine records where the run happened and what code it ran.
func machine(root string) machineRecord {
	m := machineRecord{
		NProc:             runtime.NumCPU(),
		GeneratorMaxProcs: runtime.GOMAXPROCS(0),
		SnserveMaxProcs:   runtime.NumCPU(), // snserve inherits the environment and keeps Go's default
		Go:                runtime.Version(),
		CPU:               "unknown",
	}
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		m.SnserveMaxProcs = v
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	m.Source = sourceHash(root)
	return m
}

// sourceHash identifies the code under test without git: a sha256 over
// the path and content of every go.mod and .go file outside dot
// directories.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// summarizeRecords prints, per workload and run kind, every metric's
// median and quartiles over the run records in dir, with the spread
// (Q3-Q1)/median that a run set is judged by.
func summarizeRecords(out io.Writer, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	type group struct {
		runs, late, wrong, attempted, failed int
		values                               map[string][]float64
		units                                map[string]string
	}
	groups := map[string]*group{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		key := fmt.Sprintf("%s trace=%v", rec.Workload, rec.Trace)
		g := groups[key]
		if g == nil {
			g = &group{values: map[string][]float64{}, units: map[string]string{}}
			groups[key] = g
		}
		g.runs++
		g.attempted += rec.Attempted
		g.failed += rec.Failed
		if rec.Generator.Late {
			g.late++
		}
		if !rec.Correct {
			g.wrong++
		}
		for _, ms := range []map[string]metric{rec.EndToEnd, rec.PerLayer} {
			for name, m := range ms {
				g.values[name] = append(g.values[name], m.Value)
				g.units[name] = m.Unit
			}
		}
	}
	for _, key := range sortedKeys(groups) {
		g := groups[key]
		fmt.Fprintf(out, "%s: %d runs (%d late, %d incorrect), %d attempted, %d failed\n",
			key, g.runs, g.late, g.wrong, g.attempted, g.failed)
		fmt.Fprintf(out, "  %-28s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "spread")
		for _, name := range sortedKeys(g.values) {
			xs := g.values[name]
			q1, q3 := quartiles(xs)
			med := median(xs)
			spread := math.NaN()
			if med != 0 {
				spread = (q3 - q1) / math.Abs(med)
			}
			fmt.Fprintf(out, "  %-28s %12.4f %12.4f %12.4f %8.4f %s\n", name, med, q1, q3, spread, g.units[name])
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
