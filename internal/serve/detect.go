package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"snmatch/internal/geom"
	"snmatch/internal/obs"
	"snmatch/internal/pipeline"
)

// BoxJSON is a region box in scene coordinates.
type BoxJSON struct {
	X int `json:"x"`
	Y int `json:"y"`
	W int `json:"w"`
	H int `json:"h"`
}

func boxJSON(b geom.Rect) BoxJSON {
	return BoxJSON{X: b.MinX, Y: b.MinY, W: b.W(), H: b.H()}
}

// RegionJSON is one /detect result entry: the proposal box plus the
// classification of its masked crop.
type RegionJSON struct {
	Box       BoxJSON `json:"box"`
	Class     string  `json:"class"`
	ClassID   int     `json:"class_id"`
	View      int     `json:"view"`
	Score     float64 `json:"score"`
	LatencyMS float64 `json:"latency_ms"`

	// StagesMS breaks the crop's latency_ms down by pipeline stage (see
	// PredictionJSON.StagesMS).
	StagesMS map[string]float64 `json:"stages_ms,omitempty"`
}

// DetectResponse is the /detect response document. Regions come back in
// the proposer's deterministic top-to-bottom, left-to-right order.
type DetectResponse struct {
	Gallery  string       `json:"gallery"`
	Pipeline string       `json:"pipeline"`
	Regions  []RegionJSON `json:"regions"`

	// StagesMS holds the scene-level stages (decode, admission,
	// propose); the per-region maps cover the rest.
	StagesMS map[string]float64 `json:"stages_ms,omitempty"`
}

// handleDetect is the scene endpoint: one PNG in, per-region
// classifications out. Region proposal runs inline (it is cheap and
// deterministic); the crops then fan out through classifyAll exactly
// like a JSON image batch, under the same admission gate and worker
// slots as /classify.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	m := s.obs
	m.detect.reqs.Inc()
	t0 := time.Now()
	if r.Method != http.MethodPost {
		m.detect.errs.Inc()
		httpError(w, http.StatusMethodNotAllowed, "POST a PNG scene")
		return
	}
	if !s.gate.TryEnter() {
		m.detect.errs.Inc()
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
		m.detect.errs.Inc()
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	defer e.release()
	p, err := s.pipelineFor(r.URL.Query().Get("pipeline"))
	if err != nil {
		m.detect.errs.Inc()
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Same pre-decode deadline refusal as /classify: an expired request
	// does no decode or proposal work.
	if err := ctx.Err(); err != nil {
		m.detect.errs.Inc()
		m.deadlineExceeded.Inc()
		httpErrorStages(w, http.StatusGatewayTimeout, err.Error(), tr.MSMap())
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxBodyMB)<<20)
	decStart := time.Now()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		m.detect.errs.Inc()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("serve: request body exceeds the %d MiB limit", s.cfg.MaxBodyMB))
			return
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	img, err := decodePNG(raw, s.cfg.MaxImagePixels)
	tr.Set(obs.StageDecode, time.Since(decStart))
	if err != nil {
		m.detect.errs.Inc()
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	propStart := time.Now()
	regions, crops := pipeline.ProposeCrops(img, pipeline.DetectParams{MaxRegions: s.cfg.MaxRegions})
	tr.Set(obs.StagePropose, time.Since(propStart))
	results, err := s.classifyAll(ctx, e.sg, p, crops)
	m.observeStages(&tr)
	elapsed := time.Since(t0)
	status := http.StatusOK
	if err != nil {
		status = s.classifyFailed(w, &m.detect, err, &tr)
	} else {
		m.detect.latency.ObserveDuration(int64(elapsed))
		resp := DetectResponse{Gallery: name, Pipeline: p.Name(), Regions: make([]RegionJSON, len(regions)), StagesMS: tr.MSMap()}
		for i, res := range results {
			resp.Regions[i] = RegionJSON{
				Box:       boxJSON(regions[i]),
				Class:     res.Pred.Class.String(),
				ClassID:   int(res.Pred.Class),
				View:      res.Pred.Index,
				Score:     res.Pred.Score,
				LatencyMS: float64(res.Latency) / float64(time.Millisecond),
				StagesMS:  resultStagesMS(res),
			}
		}
		writeJSON(w, http.StatusOK, resp)
	}
	s.slowLog("detect", name, p.Name(), len(crops), status, elapsed, &tr, results)
}
