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
	Workers     int           // classification pool size (<= 0: one per CPU)
	MaxBatch    int           // max queries coalesced into one batch (default 16)
	QueueCap    int           // per-batcher queue bound (default 4x MaxBatch)
	BatchWait   time.Duration // coalescing window after the first query (default 2ms)
	MaxInFlight int           // admission bound on concurrent /classify requests (default 256)
	Ratio       float64       // descriptor ratio-test threshold (default 0.5, the paper's)
	MaxBodyMB   int           // request body cap in MiB (default 32)
	MaxImages   int           // images accepted per JSON batch request (default 64)
	MaxRegions  int           // region proposals classified per /detect scene (default 32)

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
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MaxBatch
	}
	if c.BatchWait <= 0 {
		c.BatchWait = 2 * time.Millisecond
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
// one lazily-created Batcher per (gallery, pipeline) pair behind it.
type Server struct {
	reg     *Registry
	cfg     Config
	gate    *parallel.Gate
	start   time.Time
	unwatch func()
	obs     *serveMetrics
	slowMu  sync.Mutex // serialises slow-query log lines

	mu       sync.Mutex
	batchers map[string]*Batcher
	closed   bool
}

// New wires a server over the registry.
func New(reg *Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		reg:      reg,
		cfg:      cfg,
		gate:     parallel.NewGate(cfg.MaxInFlight),
		start:    time.Now(),
		obs:      serveObs(),
		batchers: map[string]*Batcher{},
	}
	s.unwatch = reg.watch(s.retireStale)
	return s
}

// retireStale drains (in the background) every cached batcher for name
// that no longer serves the registry's current gallery. It runs on
// every registry replacement, so a swapped-out gallery's batchers — and
// with them the mapping references that keep a replaced snapshot file
// mapped — are released after their in-flight work drains even if no
// request for that (gallery, pipeline) key ever arrives again.
func (s *Server) retireStale(name string) {
	cur, ok := s.reg.Get(name)
	prefix := name + "\x00"
	s.mu.Lock()
	var stale []*Batcher
	for key, b := range s.batchers {
		if strings.HasPrefix(key, prefix) && (!ok || b.sg != cur) {
			stale = append(stale, b)
			delete(s.batchers, key)
		}
	}
	s.mu.Unlock()
	for _, b := range stale {
		go b.Close()
	}
}

// Handler returns the daemon's route table. /metrics (Prometheus text)
// and /statz (its JSON twin) render the process-wide obs registry, so
// they see every server, batcher, pipeline and snapshot metric in the
// process. Every route runs under panic recovery: a handler bug (or a
// panic escaping the batcher's per-query recovery) costs that request
// a 500 and a snmatch_panics_total tick, never the connection or the
// process.
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
// disconnect map to 504; shed, shutdown and injected-fault errors are
// retryable 503s (a panic-wrapped injected fault still reads as
// fault.ErrInjected through ErrPanic); anything else — including a
// recovered pipeline panic — is a plain 500.
func errStatus(err error) (status int, retry bool) {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, false
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed), errors.Is(err, fault.ErrInjected):
		return http.StatusServiceUnavailable, true
	}
	return http.StatusInternalServerError, false
}

// Close stops every batcher after draining its queue. In-flight
// http.Server traffic should be shut down first.
func (s *Server) Close() {
	s.unwatch()
	s.mu.Lock()
	s.closed = true
	bs := make([]*Batcher, 0, len(s.batchers))
	for _, b := range s.batchers {
		bs = append(bs, b)
	}
	s.batchers = map[string]*Batcher{}
	s.mu.Unlock()
	for _, b := range bs {
		b.Close()
	}
}

// batcherFor returns the batcher serving (gallery, pipeline), creating
// it on first use. The gallery is re-read from the registry here, under
// the registry's lock, rather than trusted from the caller's earlier
// Resolve: a request that raced a gallery replacement would otherwise
// re-install a batcher over the gallery it resolved moments ago,
// silently pinning replaced (possibly unmapped-soon) storage for all
// later traffic. A cached batcher is only reused while it still serves
// the registry's current gallery; replacements normally retire stale
// batchers eagerly via retireStale, and the check here catches the
// remaining race (a batcher installed between the registry swap and
// its watcher running). Every request therefore classifies entirely on
// one gallery, old or new, never a torn mix.
func (s *Server) batcherFor(name, pipeName string, p pipeline.Pipeline) (*Batcher, error) {
	key := name + "\x00" + strings.ToLower(pipeName)
	// Bounded retry: a swap can land between acquiring the entry and
	// installing its batcher, after that swap's retireStale watcher
	// already ran — in which case the freshly installed batcher is
	// itself stale and, left alone, would pin the replaced gallery's
	// mapping behind an idle route. Re-checking the registry after the
	// install and retiring-and-retrying closes that window; swaps are
	// rare, so the loop terminates immediately in practice (and a
	// stale-but-served batcher on loop exhaustion is still correct —
	// whole-request classification on the older gallery).
	for attempt := 0; ; attempt++ {
		e, ok := s.reg.acquire(name) // retains e.res until handed to a batcher
		if !ok {
			return nil, fmt.Errorf("serve: unknown gallery %q", name)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			if e.res != nil {
				e.res.Release()
			}
			return nil, ErrClosed
		}
		b := s.batchers[key]
		if b != nil && b.sg == e.sg {
			s.mu.Unlock()
			if e.res != nil {
				e.res.Release()
			}
			return b, nil
		}
		if b != nil {
			go b.Close() // gallery was replaced; drain the stale batcher off-path
		}
		b = newBatcher(e.sg, p, s.cfg.Workers, s.cfg.MaxBatch, s.cfg.QueueCap, s.cfg.BatchWait, e.res)
		s.batchers[key] = b
		s.mu.Unlock()
		if cur, ok := s.reg.Get(name); (ok && cur == b.sg) || attempt >= 4 {
			return b, nil
		}
		s.retireStale(name) // raced a swap mid-install; retire our stale batcher and retry
	}
}

// PredictionJSON is one /classify result entry.
type PredictionJSON struct {
	Class     string  `json:"class"`
	ClassID   int     `json:"class_id"`
	View      int     `json:"view"`
	Score     float64 `json:"score"`
	Batched   int     `json:"batched"`
	LatencyMS float64 `json:"latency_ms"`
	ExtractMS float64 `json:"extract_ms"` // descriptor-extraction share of latency_ms

	// StagesMS breaks latency_ms down by pipeline stage (queue, batch,
	// extract, and — on descriptor pipelines — match and verify; the
	// latter two are CPU time summed across shard workers, so they can
	// exceed wall time).
	StagesMS map[string]float64 `json:"stages_ms,omitempty"`
}

// ClassifyResponse is the /classify response document.
type ClassifyResponse struct {
	Gallery     string           `json:"gallery"`
	Pipeline    string           `json:"pipeline"`
	Predictions []PredictionJSON `json:"predictions"`

	// StagesMS holds the request-level stages that precede batching
	// (decode, admission) — the per-prediction maps cover the rest.
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

	name, _, err := s.reg.Resolve(r.URL.Query().Get("gallery"))
	if err != nil {
		m.classify.errs.Inc()
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	pipeName := r.URL.Query().Get("pipeline")
	if pipeName == "" {
		pipeName = "hybrid"
	}
	p, err := ParsePipeline(pipeName, s.cfg.Ratio)
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

	b, err := s.batcherFor(name, pipeName, p)
	if err != nil {
		m.classify.errs.Inc()
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	resp := ClassifyResponse{Gallery: name, Pipeline: p.Name(), Predictions: make([]PredictionJSON, len(imgs))}
	var firstErr error
	var worst Result // slowest query, for the slow-query log
	var wg sync.WaitGroup
	var resMu sync.Mutex
	for i, img := range imgs {
		wg.Add(1)
		go func(i int, img *imaging.Image) {
			defer wg.Done()
			res, err := b.SubmitWait(ctx, img)
			if err != nil {
				resMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				resMu.Unlock()
				return
			}
			m.observeResult(res)
			resMu.Lock()
			if res.Latency > worst.Latency {
				worst = res
			}
			resMu.Unlock()
			resp.Predictions[i] = PredictionJSON{
				Class:     res.Pred.Class.String(),
				ClassID:   int(res.Pred.Class),
				View:      res.Pred.Index,
				Score:     res.Pred.Score,
				Batched:   res.Batched,
				LatencyMS: float64(res.Latency) / float64(time.Millisecond),
				ExtractMS: float64(res.Extract) / float64(time.Millisecond),
				StagesMS:  resultStagesMS(res),
			}
		}(i, img)
	}
	wg.Wait()
	m.observeStages(&tr)
	elapsed := time.Since(t0)
	status := http.StatusOK
	if firstErr != nil {
		var retry bool
		status, retry = errStatus(firstErr)
		if retry {
			w.Header().Set("Retry-After", "1")
		}
		if status == http.StatusGatewayTimeout {
			m.deadlineExceeded.Inc()
		}
		m.classify.errs.Inc()
		// A 504 carries the partial stage trace: the stages the request
		// finished before its deadline expired.
		httpErrorStages(w, status, firstErr.Error(), tr.MSMap())
	} else {
		m.classify.latency.ObserveDuration(int64(elapsed))
		resp.StagesMS = tr.MSMap()
		writeJSON(w, http.StatusOK, resp)
	}
	if s.cfg.SlowLog > 0 && elapsed >= s.cfg.SlowLog {
		stages := tr.MSMap()
		if stages == nil {
			stages = map[string]float64{}
		}
		for k, v := range resultStagesMS(worst) {
			stages[k] = v
		}
		s.slowLog("classify", name, p.Name(), len(imgs), status, elapsed, stages)
	}
}

// decodeImages parses the request body (already wrapped in a
// MaxBytesReader by the handler): a raw PNG for single queries, or a
// JSON {"images": [base64-png, ...]} batch. The batch size is capped:
// the admission gate counts requests, so per-request work must be
// bounded too or one huge batch could hold thousands of decoded images
// and submit goroutines while occupying a single gate slot. Decoded
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
// compressed stream can declare arbitrary dimensions.
func decodePNG(raw []byte, maxPixels int) (*imaging.Image, error) {
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
	Index       string         `json:"index"`       // matching backend spec, e.g. "exact" or "ivf(nlists=auto,nprobe=8)"
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
		info := GalleryInfo{Name: n, Views: sg.G.Len(), Shards: sg.Shards, Index: sg.G.IndexSpec().String(), Descriptors: map[string]int{}}
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
	Index       string          `json:"index"` // matching backend spec
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
		info := HealthGallery{Name: n, Views: sg.G.Len(), Shards: sg.Shards, Index: sg.G.IndexSpec().String()}
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
