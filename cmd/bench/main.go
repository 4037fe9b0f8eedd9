// Command bench runs the repository's `go test -bench` tables, parses
// ns/op, -benchmem and custom metrics (accuracy etc.), and writes a
// machine-readable BENCH_<n>.json snapshot — the perf trajectory record
// the ROADMAP asks every optimisation PR to extend.
//
// Usage:
//
//	go run ./cmd/bench [-bench REGEX] [-benchtime 3x] [-count 3] [-out BENCH_4.json] [-note "..."] [-compare BENCH_3.json]
//
// Multiple -count repetitions are averaged per benchmark. With
// -compare, the new numbers are diffed against a prior snapshot and a
// per-benchmark ns/op + allocs/op delta table is printed — the
// regression view a perf PR pastes into its description.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's aggregated numbers.
type Result struct {
	Name       string             `json:"name"`
	Runs       int                `json:"runs"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"` // ns/op, B/op, allocs/op, acc, ...
}

// Report is the BENCH_<n>.json document.
type Report struct {
	ID         string   `json:"id"`
	Note       string   `json:"note,omitempty"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Bench      string   `json:"bench_regex"`
	BenchTime  string   `json:"benchtime"`
	Count      int      `json:"count"`
	DurationMS int64    `json:"duration_ms"`
	Results    []Result `json:"results"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	benchRe := flag.String("bench", "BenchmarkRunParallelDescriptor|BenchmarkGoodMatchCount|BenchmarkRunParallel$|BenchmarkServeThroughput|BenchmarkSnapshot$|BenchmarkSnapshotMap|BenchmarkQueryExtract|BenchmarkDetectScene|BenchmarkSceneRobustness|BenchmarkANNRecall|BenchmarkObsOverhead",
		"benchmark regex passed to go test -bench")
	benchTime := flag.String("benchtime", "3x", "go test -benchtime value")
	count := flag.Int("count", 3, "go test -count repetitions (averaged)")
	outPath := flag.String("out", "BENCH_8.json", "output JSON path")
	pkg := flag.String("pkg", ".", "package to benchmark")
	note := flag.String("note", "", "free-form note recorded in the report")
	comparePath := flag.String("compare", "", "prior BENCH_<n>.json to diff the new numbers against")
	flag.Parse()

	args := []string{
		"test", "-run", "^$",
		"-bench", *benchRe,
		"-benchmem",
		"-benchtime", *benchTime,
		"-count", strconv.Itoa(*count),
		*pkg,
	}
	log.Printf("running go %s", strings.Join(args, " "))
	start := time.Now()
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		log.Fatalf("go test -bench failed: %v", err)
	}
	elapsed := time.Since(start)

	results := parseBenchOutput(bytes.NewReader(out))
	if len(results) == 0 {
		log.Fatal("no benchmark lines parsed; is the regex right?")
	}

	id := strings.TrimSuffix(strings.TrimSuffix(*outPath, ".json"), ".JSON")
	if i := strings.LastIndexByte(id, '/'); i >= 0 {
		id = id[i+1:]
	}
	report := Report{
		ID:         id,
		Note:       *note,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Bench:      *benchRe,
		BenchTime:  *benchTime,
		Count:      *count,
		DurationMS: elapsed.Milliseconds(),
		Results:    results,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("%-60s %12.0f ns/op", r.Name, r.Metrics["ns/op"])
		if acc, ok := r.Metrics["acc"]; ok {
			fmt.Printf("  acc=%.4f", acc)
		}
		if al, ok := r.Metrics["allocs/op"]; ok {
			fmt.Printf("  allocs/op=%.0f", al)
		}
		fmt.Println()
	}
	fmt.Printf("wrote %s (%d benchmarks, %s)\n", *outPath, len(results), elapsed.Round(time.Second))

	if *comparePath != "" {
		prior, err := loadReport(*comparePath)
		if err != nil {
			log.Fatalf("compare: %v", err)
		}
		printComparison(prior, report)
	}
}

// loadReport reads a previously written BENCH_<n>.json.
func loadReport(path string) (Report, error) {
	var r Report
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("parse %s: %w", path, err)
	}
	return r, nil
}

// printComparison diffs the new report against a prior snapshot:
// per-benchmark ns/op and allocs/op with relative deltas, plus the
// benchmarks that appear on only one side. Positive deltas are
// regressions (slower / more allocations).
func printComparison(old, cur Report) {
	oldBy := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		oldBy[r.Name] = r
	}
	fmt.Printf("\ncomparison vs %s:\n", old.ID)
	fmt.Printf("%-60s %14s %14s %8s %12s %12s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs")
	overlap := 0
	for _, r := range cur.Results {
		o, ok := oldBy[r.Name]
		if !ok {
			fmt.Printf("%-60s %14s %14.0f %8s %12s %12.0f  (new)\n",
				r.Name, "-", r.Metrics["ns/op"], "-", "-", r.Metrics["allocs/op"])
			continue
		}
		overlap++
		delete(oldBy, r.Name)
		oldNs, newNs := o.Metrics["ns/op"], r.Metrics["ns/op"]
		delta := "-"
		if oldNs > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(newNs-oldNs)/oldNs)
		}
		fmt.Printf("%-60s %14.0f %14.0f %8s %12.0f %12.0f\n",
			r.Name, oldNs, newNs, delta, o.Metrics["allocs/op"], r.Metrics["allocs/op"])
	}
	if len(oldBy) > 0 {
		gone := make([]string, 0, len(oldBy))
		for name := range oldBy {
			gone = append(gone, name)
		}
		sort.Strings(gone)
		for _, name := range gone {
			fmt.Printf("%-60s  (dropped since %s)\n", name, old.ID)
		}
	}
	if overlap == 0 {
		fmt.Println("(no overlapping benchmarks)")
	}
}

// parseBenchOutput folds standard `go test -bench` lines — name,
// iteration count, then (value, unit) pairs — into per-name means.
func parseBenchOutput(r *bytes.Reader) []Result {
	type agg struct {
		runs  int
		iters int64
		sums  map[string]float64
	}
	byName := map[string]*agg{}
	var order []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		// Strip the -N GOMAXPROCS suffix go test appends to the name.
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		a := byName[name]
		if a == nil {
			a = &agg{sums: map[string]float64{}}
			byName[name] = a
			order = append(order, name)
		}
		a.runs++
		a.iters = iters
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			a.sums[fields[i+1]] += v
		}
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		a := byName[name]
		metrics := make(map[string]float64, len(a.sums))
		for unit, sum := range a.sums {
			metrics[unit] = sum / float64(a.runs)
		}
		out = append(out, Result{Name: name, Runs: a.runs, Iterations: a.iters, Metrics: metrics})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
