package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"time"

	"snmatch/internal/obs"
	"snmatch/internal/pipeline"
)

// epMetrics is one endpoint's request accounting, pre-resolved so the
// handlers record with plain atomic ops.
type epMetrics struct {
	reqs    *obs.Counter
	errs    *obs.Counter
	latency *obs.Histogram
}

// serveMetrics is the serving stack's instrumentation surface, wired
// once per process into obs.Default. Every cell is resolved at wire-up;
// the handlers, the per-query classify path and the registry record
// through struct fields.
type serveMetrics struct {
	classify  epMetrics
	detect    epMetrics
	galleries epMetrics
	healthz   epMetrics

	admissionRejects *obs.Counter // 503s at the admission gate

	stages [obs.NumStages]*obs.Histogram // aggregated per-stage latency

	swaps *obs.Counter // gallery replacements in the registry

	panics           *obs.Counter // classification panics recovered into per-query errors
	deadlineExceeded *obs.Counter // requests answered 504 (deadline expired mid-pipeline)
}

var (
	smOnce sync.Once
	smPtr  *serveMetrics
)

// serveObs returns the process-wide serving metrics, wiring them (and
// the pipeline's instrumentation) into obs.Default on first use. Every
// Server records here; the /metrics and /statz endpoints render the
// same registry.
func serveObs() *serveMetrics {
	smOnce.Do(func() {
		r := obs.Default
		pipeline.EnableObs(r)
		m := &serveMetrics{}
		eps := []string{"classify", "detect", "galleries", "healthz"}
		reqs := r.CounterVec("snmatch_requests_total",
			"HTTP requests received, by endpoint.", "endpoint", eps...)
		errs := r.CounterVec("snmatch_errors_total",
			"HTTP requests answered with a non-2xx status, by endpoint.", "endpoint", eps...)
		lat := r.HistogramVec("snmatch_request_seconds",
			"End-to-end request latency, by endpoint.", obs.ScaleNanos, "endpoint", eps...)
		for i, ep := range []*epMetrics{&m.classify, &m.detect, &m.galleries, &m.healthz} {
			ep.reqs = reqs.With(eps[i])
			ep.errs = errs.With(eps[i])
			ep.latency = lat.With(eps[i])
		}
		m.admissionRejects = r.Counter("snmatch_admission_rejects_total",
			"Requests shed with 503 at the admission gate (MaxInFlight).")
		st := r.HistogramVec("snmatch_stage_seconds",
			"Per-request stage latency, by pipeline stage (match is CPU time across shard workers).",
			obs.ScaleNanos, "stage", obs.StageNames()...)
		for i, name := range obs.StageNames() {
			m.stages[i] = st.With(name)
		}
		m.swaps = r.Counter("snmatch_gallery_swaps_total",
			"Gallery replacements (same name re-registered) in the serving registry.")
		m.panics = r.Counter("snmatch_panics_total",
			"Classification panics recovered into per-query 500s (the worker and process survive).")
		m.deadlineExceeded = r.Counter("snmatch_deadline_exceeded_total",
			"Requests answered 504 because their deadline expired before the pipeline finished.")
		smPtr = m
	})
	return smPtr
}

// observeStages folds one request trace into the aggregate per-stage
// histograms.
func (m *serveMetrics) observeStages(tr *obs.Trace) {
	tr.Each(func(s obs.Stage, d time.Duration) {
		m.stages[s].ObserveDuration(int64(d))
	})
}

// observeResult folds one classified query's stage breakdown into the
// aggregate per-stage histograms. Queue and classify are always known;
// the pipeline-side stages only when the pipeline reports stats (and
// match only while tracing is live).
func (m *serveMetrics) observeResult(res Result) {
	m.stages[obs.StageQueue].ObserveDuration(int64(res.Queue))
	m.stages[obs.StageClassify].ObserveDuration(int64(res.Classify))
	if res.Extract > 0 {
		m.stages[obs.StageExtract].ObserveDuration(int64(res.Extract))
	}
	if res.Match > 0 {
		m.stages[obs.StageMatch].ObserveDuration(int64(res.Match))
	}
}

// resultStagesMS renders one Result's stage breakdown as the
// per-prediction stages_ms map (zero stages omitted).
func resultStagesMS(res Result) map[string]float64 {
	out := make(map[string]float64, 4)
	put := func(s obs.Stage, d time.Duration) {
		if d > 0 {
			out[s.String()] = float64(d) / float64(time.Millisecond)
		}
	}
	put(obs.StageQueue, res.Queue)
	put(obs.StageClassify, res.Classify)
	put(obs.StageExtract, res.Extract)
	put(obs.StageMatch, res.Match)
	return out
}

// statusWriter records the response status so the endpoint wrapper can
// count errors without threading metrics through every handler.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrumented wraps a simple handler with per-endpoint request/error
// counting and end-to-end latency. The classify and detect handlers
// instrument inline instead — they also time stages and feed the slow
// log.
func instrumented(ep *epMetrics, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ep.reqs.Inc()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.status >= 400 {
			ep.errs.Inc()
			return
		}
		ep.latency.ObserveDuration(int64(time.Since(start)))
	}
}

// slowLogEntry is one structured slow-query log line: everything an
// operator needs to see where a slow request spent its time.
type slowLogEntry struct {
	TS        string             `json:"ts"`
	Endpoint  string             `json:"endpoint"`
	Gallery   string             `json:"gallery"`
	Pipeline  string             `json:"pipeline"`
	Images    int                `json:"images"`
	Status    int                `json:"status"`
	LatencyMS float64            `json:"latency_ms"`
	StagesMS  map[string]float64 `json:"stages_ms,omitempty"`
}

// slowLog writes one slow-query line when the request's end-to-end
// latency reached the configured threshold. The full stage trace —
// the request-level stages of tr merged with the slowest result's —
// rides along so the offending phase is visible without re-running
// the query.
func (s *Server) slowLog(endpoint, gallery, pipeName string, images, status int, elapsed time.Duration, tr *obs.Trace, results []Result) {
	if s.cfg.SlowLog <= 0 || elapsed < s.cfg.SlowLog {
		return
	}
	var worst Result
	for _, res := range results {
		if res.Latency > worst.Latency {
			worst = res
		}
	}
	stages := tr.MSMap()
	if stages == nil {
		stages = map[string]float64{}
	}
	for k, v := range resultStagesMS(worst) {
		stages[k] = v
	}
	w := s.cfg.SlowLogW
	if w == nil {
		w = os.Stderr
	}
	line, err := json.Marshal(slowLogEntry{
		TS:        time.Now().UTC().Format(time.RFC3339Nano),
		Endpoint:  endpoint,
		Gallery:   gallery,
		Pipeline:  pipeName,
		Images:    images,
		Status:    status,
		LatencyMS: float64(elapsed) / float64(time.Millisecond),
		StagesMS:  stages,
	})
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.slowMu.Lock()
	w.Write(line)
	s.slowMu.Unlock()
}
