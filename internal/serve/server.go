package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"snmatch/internal/fault"
	"snmatch/internal/histogram"
	"snmatch/internal/imaging"
	"snmatch/internal/moments"
	"snmatch/internal/obs"
	"snmatch/internal/parallel"
	"snmatch/internal/pipeline"
)

// Config sizes the serving layer. Zero values select the defaults.
type Config struct {
	Workers     int     // images classifying at once, across all requests (<= 0: one per CPU)
	MaxInFlight int     // admission bound on concurrent /classify requests (default 256)
	Ratio       float64 // descriptor ratio-test threshold (default 0.5, the paper's)
	MaxBodyMB   int     // request body cap in MiB (default 32)
	MaxImages   int     // images accepted per JSON batch request (default 64)
	MaxRegions  int     // region proposals classified per /detect scene (default 32)

	// RequestTimeout bounds each /classify and /detect request end to
	// end: the handler derives a deadline-bearing context from it and
	// the pipeline checks that context between stages (decode →
	// extract → per-shard scan), so an expired request stops burning
	// CPU at the next stage boundary and is answered 504 with the
	// partial stage trace it accumulated. 0 disables the bound (the
	// client's own disconnect still cancels).
	RequestTimeout time.Duration

	// MaxImagePixels caps the DECODED dimensions of a query image
	// (default 4 Mpx ≈ 2048x2048). The body-size cap alone cannot
	// bound this — a tiny compressed PNG can decode to an enormous
	// raster whose extraction working set would both stall the pool
	// and inflate the pooled extraction contexts far past the
	// footprint they are allowed to carry back into their pool.
	MaxImagePixels int

	// SlowLog enables the structured slow-query log: every /classify or
	// /detect request whose end-to-end latency reaches this threshold is
	// written as one JSON line (endpoint, gallery, pipeline, status and
	// the full stage breakdown) to SlowLogW. 0 disables it.
	SlowLog time.Duration

	// SlowLogW receives slow-query lines (default os.Stderr). Writes are
	// serialised, so any io.Writer works.
	SlowLogW io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = parallel.DefaultWorkers()
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.Ratio <= 0 {
		c.Ratio = 0.5
	}
	if c.MaxBodyMB <= 0 {
		c.MaxBodyMB = 32
	}
	if c.MaxImages <= 0 {
		c.MaxImages = 64
	}
	if c.MaxRegions <= 0 {
		c.MaxRegions = 32
	}
	if c.MaxImagePixels <= 0 {
		c.MaxImagePixels = 4 << 20
	}
	return c
}

// ParsePipeline resolves a request's pipeline name to a serving-safe
// pipeline. Only stateless pipelines are servable (the random baseline
// and the neural scorer hold per-instance mutable state).
func ParsePipeline(name string, ratio float64) (pipeline.Pipeline, error) {
	switch strings.ToLower(name) {
	case "sift":
		return pipeline.NewDescriptor(pipeline.SIFT, ratio), nil
	case "surf":
		return pipeline.NewDescriptor(pipeline.SURF, ratio), nil
	case "orb":
		return pipeline.NewDescriptor(pipeline.ORB, ratio), nil
	case "hybrid", "":
		return pipeline.DefaultHybrid(pipeline.WeightedSum), nil
	case "shape":
		return pipeline.ShapeOnly{Method: moments.MatchI3}, nil
	case "color":
		return pipeline.ColorOnly{Metric: histogram.Hellinger}, nil
	}
	return nil, fmt.Errorf("serve: unknown pipeline %q (want sift, surf, orb, hybrid, shape or color)", name)
}

// Server is the HTTP serving frontend: bounded admission at the door,
// then every request classifies its images on its own goroutines under
// one gate of Workers slots that all requests share.
type Server struct {
	reg     *Registry
	cfg     Config
	gate    *parallel.Gate               // admission: requests in flight (MaxInFlight)
	workers *parallel.Gate               // images classifying at once (Workers)
	pipes   map[string]pipeline.Pipeline // one shared instance per lower-cased pipeline name
	start   time.Time
	obs     *serveMetrics
	slowMu  sync.Mutex // serialises slow-query log lines
}

// New wires a server over the registry.
func New(reg *Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		reg:     reg,
		cfg:     cfg,
		gate:    parallel.NewGate(cfg.MaxInFlight),
		workers: parallel.NewGate(cfg.Workers),
		pipes:   map[string]pipeline.Pipeline{},
		start:   time.Now(),
		obs:     serveObs(),
	}
	for _, name := range []string{"sift", "surf", "orb", "hybrid", "shape", "color"} {
		s.pipes[name], _ = ParsePipeline(name, cfg.Ratio)
	}
	return s
}

// pipelineFor returns the server's one instance of the named pipeline
// (hybrid when the request names none). Every request for a name shares
// it, so a descriptor pipeline's warm extraction contexts serve them
// all; an instance per request would start every query on a cold one.
func (s *Server) pipelineFor(name string) (pipeline.Pipeline, error) {
	if name == "" {
		name = "hybrid"
	}
	if p, ok := s.pipes[strings.ToLower(name)]; ok {
		return p, nil
	}
	return ParsePipeline(name, s.cfg.Ratio) // not a servable name: ParsePipeline's error
}

// Handler returns the daemon's route table. /metrics (Prometheus text)
// and /statz (its JSON twin) render the process-wide obs registry, so
// they see every server, pipeline and snapshot metric in the process.
// Every route runs under panic recovery: a handler bug (or a panic
// escaping classify's per-query recovery) costs that request a 500 and
// a snmatch_panics_total tick, never the connection or the process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/classify", s.handleClassify)
	mux.HandleFunc("/detect", s.handleDetect)
	mux.HandleFunc("/galleries", instrumented(&s.obs.galleries, s.handleGalleries))
	mux.HandleFunc("/healthz", instrumented(&s.obs.healthz, s.handleHealthz))
	mux.HandleFunc("/metrics", obs.PromHandler(obs.Default))
	mux.HandleFunc("/statz", obs.StatzHandler(obs.Default))
	return s.recovered(mux)
}

// recovered wraps the route table with last-resort panic recovery.
// net/http would recover a handler panic too, but by killing the
// connection with an empty reply; this converts it into an honest JSON
// 500 (when the header is still unsent) and counts it.
func (s *Server) recovered(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.obs.panics.Inc()
				httpError(w, http.StatusInternalServerError, fmt.Sprintf("serve: internal panic: %v", rec))
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// requestCtx derives the request's working context: the client's own
// (cancelled on disconnect), bounded by RequestTimeout when set.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

// errStatus maps a classification error to its HTTP status and whether
// the client should retry elsewhere (Retry-After). Deadline and
// disconnect map to 504; injected-fault errors are retryable 503s (a
// panic-wrapped injected fault still reads as fault.ErrInjected through
// ErrPanic); anything else — including a recovered pipeline panic — is
// a plain 500.
func errStatus(err error) (status int, retry bool) {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, false
	case errors.Is(err, fault.ErrInjected):
		return http.StatusServiceUnavailable, true
	}
	return http.StatusInternalServerError, false
}

// ErrPanic wraps a classification panic recovered on the query path —
// a pipeline bug (or an armed panic-mode fault) costs that one query an
// error answer instead of the whole process. The panic value is
// wrapped, so an injected fault stays errors.Is-able as
// fault.ErrInjected through the recovery.
var ErrPanic = errors.New("serve: classification panicked")

// Result is one classified image with its serving timings.
type Result struct {
	Pred     pipeline.Prediction
	Latency  time.Duration // Queue + Classify
	Queue    time.Duration // wait for a worker slot
	Classify time.Duration // classification wall time
	Extract  time.Duration // descriptor-extraction share of Classify (0 when unknown)
	Match    time.Duration // index-scan share (CPU time across shard workers; 0 when unknown)
}

// recoverQuery converts a classification panic into a per-query error:
// the request survives, the panics counter ticks, and an error panic
// value stays unwrappable (so an injected fault keeps reading as
// fault.ErrInjected through the recovery).
func (s *Server) recoverQuery(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	s.obs.panics.Inc()
	if e, ok := r.(error); ok {
		//lint:allow noalloc panic recovery is the cold path; a recovered query already paid a stack unwind
		*errp = fmt.Errorf("%w: %w", ErrPanic, e)
	} else {
		//lint:allow noalloc panic recovery is the cold path; a recovered query already paid a stack unwind
		*errp = fmt.Errorf("%w: %v", ErrPanic, r)
	}
}

// classify is one image's classification, on the calling goroutine. It
// fires the classify-admit fault point, waits for one of the Workers
// slots (the queue stage; a context that ends meanwhile returns its
// error unclassified), then runs the sharded classification (the
// classify stage) under per-query panic recovery, so one poisoned query
// fails alone and gives its slot back. A shard worker's panic reaches
// that recovery too: the shard fan-out re-panics it in this goroutine.
//
//snmatch:noalloc
func (s *Server) classify(ctx context.Context, sg *pipeline.ShardedGallery, p pipeline.Pipeline, img *imaging.Image) (res Result, err error) {
	if err := fault.Check(fault.ClassifyAdmit); err != nil {
		return Result{}, err
	}
	enter := time.Now()
	if err := s.workers.Enter(ctx); err != nil {
		return Result{}, err
	}
	defer s.workers.Leave()
	defer s.recoverQuery(&err)
	start := time.Now()
	var stats pipeline.QueryStats
	res.Pred, stats, err = sg.ClassifyStatsCtx(ctx, p, img)
	now := time.Now()
	res.Latency, res.Queue, res.Classify = now.Sub(enter), start.Sub(enter), now.Sub(start)
	res.Extract, res.Match = stats.Extract, stats.Match
	return res, err
}

// classifyAll classifies a request's images concurrently through
// classify and returns their results in input order; the successful
// ones feed the stage histograms. The error is the lowest-index
// image's, so a failing request's answer does not depend on scheduling.
func (s *Server) classifyAll(ctx context.Context, sg *pipeline.ShardedGallery, p pipeline.Pipeline, imgs []*imaging.Image) ([]Result, error) {
	res := make([]Result, len(imgs))
	errs := make([]error, len(imgs))
	parallel.ForEach(s.cfg.Workers, len(imgs), func(i int) {
		res[i], errs[i] = s.classify(ctx, sg, p, imgs[i])
	})
	var first error
	for i, err := range errs {
		if err == nil {
			s.obs.observeResult(res[i])
		} else if first == nil {
			first = err
		}
	}
	return res, first
}

// PredictionJSON is one /classify result entry.
type PredictionJSON struct {
	Class     string  `json:"class"`
	ClassID   int     `json:"class_id"`
	View      int     `json:"view"`
	Score     float64 `json:"score"`
	LatencyMS float64 `json:"latency_ms"`
	ExtractMS float64 `json:"extract_ms"` // descriptor-extraction share of latency_ms

	// StagesMS breaks latency_ms down by pipeline stage (queue,
	// classify, extract, and — on descriptor pipelines — match, which
	// is CPU time summed across shard workers, so it can exceed wall
	// time).
	StagesMS map[string]float64 `json:"stages_ms,omitempty"`
}

// ClassifyResponse is the /classify response document.
type ClassifyResponse struct {
	Gallery     string           `json:"gallery"`
	Pipeline    string           `json:"pipeline"`
	Predictions []PredictionJSON `json:"predictions"`

	// StagesMS holds the request-level stages that precede
	// classification (decode, admission) — the per-prediction maps
	// cover the rest.
	StagesMS map[string]float64 `json:"stages_ms,omitempty"`
}

// classifyRequest is the JSON batch payload: PNG images, base64-encoded.
type classifyRequest struct {
	Images []string `json:"images"`
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	m := s.obs
	m.classify.reqs.Inc()
	t0 := time.Now()
	if r.Method != http.MethodPost {
		m.classify.errs.Inc()
		httpError(w, http.StatusMethodNotAllowed, "POST a PNG body or a JSON image batch")
		return
	}
	if !s.gate.TryEnter() {
		m.classify.errs.Inc()
		m.admissionRejects.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "server at admission capacity")
		return
	}
	defer s.gate.Leave()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	var tr obs.Trace
	tr.Set(obs.StageAdmission, time.Since(t0))

	name, e, err := s.reg.acquire(r.URL.Query().Get("gallery"))
	if err != nil {
		m.classify.errs.Inc()
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	defer e.release()
	p, err := s.pipelineFor(r.URL.Query().Get("pipeline"))
	if err != nil {
		m.classify.errs.Inc()
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	// An already-expired deadline is refused before the body is even
	// decoded: no pipeline work, and the 504's stage trace proves it
	// (admission only, no decode entry).
	if err := ctx.Err(); err != nil {
		m.classify.errs.Inc()
		m.deadlineExceeded.Inc()
		httpErrorStages(w, http.StatusGatewayTimeout, err.Error(), tr.MSMap())
		return
	}

	// MaxBytesReader (unlike a plain LimitReader) surfaces an oversized
	// body as its own error type, so huge uploads get an honest 413
	// instead of a misleading decode-failure 400.
	r.Body = http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxBodyMB)<<20)
	decStart := time.Now()
	imgs, err := decodeImages(r, s.cfg.MaxImages, s.cfg.MaxImagePixels)
	tr.Set(obs.StageDecode, time.Since(decStart))
	if err != nil {
		m.classify.errs.Inc()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("serve: request body exceeds the %d MiB limit", s.cfg.MaxBodyMB))
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	results, err := s.classifyAll(ctx, e.sg, p, imgs)
	m.observeStages(&tr)
	elapsed := time.Since(t0)
	status := http.StatusOK
	if err != nil {
		status = s.classifyFailed(w, &m.classify, err, &tr)
	} else {
		m.classify.latency.ObserveDuration(int64(elapsed))
		resp := ClassifyResponse{Gallery: name, Pipeline: p.Name(), Predictions: make([]PredictionJSON, len(results)), StagesMS: tr.MSMap()}
		for i, res := range results {
			resp.Predictions[i] = PredictionJSON{
				Class:     res.Pred.Class.String(),
				ClassID:   int(res.Pred.Class),
				View:      res.Pred.Index,
				Score:     res.Pred.Score,
				LatencyMS: float64(res.Latency) / float64(time.Millisecond),
				ExtractMS: float64(res.Extract) / float64(time.Millisecond),
				StagesMS:  resultStagesMS(res),
			}
		}
		writeJSON(w, http.StatusOK, resp)
	}
	s.slowLog("classify", name, p.Name(), len(imgs), status, elapsed, &tr, results)
}

// classifyFailed answers a request whose classification failed and
// returns the status it sent. A 504 carries the partial stage trace:
// the stages the request finished before its deadline expired.
func (s *Server) classifyFailed(w http.ResponseWriter, ep *epMetrics, err error, tr *obs.Trace) int {
	status, retry := errStatus(err)
	if retry {
		w.Header().Set("Retry-After", "1")
	}
	if status == http.StatusGatewayTimeout {
		s.obs.deadlineExceeded.Inc()
	}
	ep.errs.Inc()
	httpErrorStages(w, status, err.Error(), tr.MSMap())
	return status
}

// decodeImages parses the request body (already wrapped in a
// MaxBytesReader by the handler): a raw PNG for single queries, or a
// JSON {"images": [base64-png, ...]} batch. The batch size is capped:
// the admission gate counts requests, so per-request work must be
// bounded too or one huge batch could hold thousands of decoded images
// while occupying a single gate slot. Decoded
// dimensions are capped per image (maxPixels) before full decoding.
func decodeImages(r *http.Request, maxImages, maxPixels int) ([]*imaging.Image, error) {
	body := r.Body
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	switch strings.ToLower(strings.TrimSpace(ct)) { // MIME types are case-insensitive
	case "application/json":
		var req classifyRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			return nil, fmt.Errorf("serve: bad JSON body: %w", err)
		}
		if len(req.Images) == 0 {
			return nil, fmt.Errorf("serve: JSON body carries no images")
		}
		if len(req.Images) > maxImages {
			return nil, fmt.Errorf("serve: batch of %d images exceeds the per-request cap of %d; split the batch", len(req.Images), maxImages)
		}
		imgs := make([]*imaging.Image, len(req.Images))
		for i, b64 := range req.Images {
			raw, err := base64.StdEncoding.DecodeString(b64)
			if err != nil {
				return nil, fmt.Errorf("serve: image %d: bad base64: %w", i, err)
			}
			img, err := decodePNG(raw, maxPixels)
			if err != nil {
				return nil, fmt.Errorf("serve: image %d: %w", i, err)
			}
			imgs[i] = img
		}
		return imgs, nil
	default: // image/png or unlabelled single image
		raw, err := io.ReadAll(body) // bounded by the MaxBytesReader
		if err != nil {
			return nil, err
		}
		img, err := decodePNG(raw, maxPixels)
		if err != nil {
			return nil, err
		}
		return []*imaging.Image{img}, nil
	}
}

// decodePNG decodes one PNG, rejecting rasters whose decoded pixel
// count exceeds maxPixels before the full (potentially enormous)
// decode runs — the byte cap upstream cannot bound this, since a tiny
// compressed stream can declare arbitrary dimensions. The 8-bit
// truecolor bodies every client sends take imaging.DecodePNG; every
// body it does not take, refused ones included, goes to image/png.
func decodePNG(raw []byte, maxPixels int) (*imaging.Image, error) {
	if img, ok := imaging.DecodePNG(raw, maxPixels); ok {
		return img, nil
	}
	cfg, err := png.DecodeConfig(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("serve: decode png: %w", err)
	}
	// The pixel bound divides instead of multiplying: a PNG header can
	// declare dimensions up to 2^31-1 each, whose product overflows —
	// and on 32-bit ints wraps to a small or negative count that would
	// sail through a multiplied check straight into the full decode.
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.Width > maxPixels/cfg.Height {
		return nil, fmt.Errorf("serve: image is %dx%d; decoded size exceeds the %d-pixel limit",
			cfg.Width, cfg.Height, maxPixels)
	}
	std, err := png.Decode(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("serve: decode png: %w", err)
	}
	return imaging.FromStdImage(std), nil
}

// GalleryInfo is one /galleries entry.
type GalleryInfo struct {
	Name        string         `json:"name"`
	Views       int            `json:"views"`
	Shards      int            `json:"shards"`
	Descriptors map[string]int `json:"descriptors"` // prepared kinds -> indexed descriptor rows
}

func (s *Server) handleGalleries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET lists galleries")
		return
	}
	names := s.reg.Names()
	out := struct {
		Galleries []GalleryInfo `json:"galleries"`
	}{Galleries: make([]GalleryInfo, 0, len(names))}
	for _, n := range names {
		sg, ok := s.reg.Get(n)
		if !ok {
			continue
		}
		info := GalleryInfo{Name: n, Views: sg.G.Len(), Shards: sg.Shards, Descriptors: map[string]int{}}
		// Enumerate the kinds the gallery actually has indexes for rather
		// than a hardcoded family list, so the listing stays truthful if
		// the set of kinds ever diverges from the built-in three (e.g. a
		// snapshot that persisted a subset, or a future family).
		for _, k := range sg.G.IndexedKinds() {
			if nd, _ := sg.G.IndexStats(k); nd > 0 {
				info.Descriptors[k.String()] = nd
			}
		}
		out.Galleries = append(out.Galleries, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// HealthSnapshot is the provenance block of a /healthz gallery entry.
// Its fields are never omitted: 0 is a seed an operator can
// legitimately build with, so absence of provenance is signalled by
// the whole object being absent, not by zero values.
type HealthSnapshot struct {
	Dataset string `json:"dataset"`
	Size    int    `json:"size"`
	Seed    uint64 `json:"seed"`
}

// HealthGallery is one /healthz gallery entry: the serving shape, the
// descriptor kinds with built indexes, plus the snapshot provenance
// when the gallery was registered with one.
type HealthGallery struct {
	Name        string          `json:"name"`
	Views       int             `json:"views"`
	Shards      int             `json:"shards"`
	Descriptors []string        `json:"descriptors,omitempty"`
	Snapshot    *HealthSnapshot `json:"snapshot,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET probes health")
		return
	}
	names := s.reg.Names()
	infos := make([]HealthGallery, 0, len(names))
	for _, n := range names {
		// One atomic registry read per gallery: a concurrent
		// replacement may drop an entry or show the old or new one,
		// but never a mix of one gallery's shape with another's
		// provenance.
		sg, meta, hasMeta, ok := s.reg.Entry(n)
		if !ok {
			continue
		}
		info := HealthGallery{Name: n, Views: sg.G.Len(), Shards: sg.Shards}
		for _, k := range sg.G.IndexedKinds() {
			info.Descriptors = append(info.Descriptors, k.String())
		}
		if hasMeta {
			info.Snapshot = &HealthSnapshot{Dataset: meta.Dataset, Size: meta.Size, Seed: meta.Seed}
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"galleries":    s.reg.Len(),
		"gallery_info": infos,
		"in_flight":    s.gate.InUse(),
		"capacity":     s.gate.Cap(),
		"uptime_ms":    time.Since(s.start).Milliseconds(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// httpErrorStages is httpError with the partial stage trace attached,
// so a 504 tells the caller which stages ran before the deadline ate
// the request.
func httpErrorStages(w http.ResponseWriter, status int, msg string, stages map[string]float64) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"error": msg, "stages_ms": stages})
}
