package snapshot

import (
	"sync"
	"sync/atomic"
	"time"

	"snmatch/internal/obs"
)

// liveMapRefs tracks the summed reference count of every live Mapping —
// registry holds, request holds and creator handles alike. It moves on
// Map/Retain/Release only (never the query path).
var liveMapRefs atomic.Int64

// LiveMappingRefs returns the summed refcount of all live snapshot
// mappings — the feed for the snmatch_mapping_refs gauge. 0 means no
// snapshot file is mapped.
func LiveMappingRefs() int64 { return liveMapRefs.Load() }

// loadObs holds the snapshot loading metrics, registered into
// obs.Default on the first load so that processes that never touch a
// snapshot never grow the metric families.
var loadObs struct {
	once    sync.Once
	load    *obs.Counter // buffered Load/Read decodes
	mapped  *obs.Counter // true zero-copy mappings
	mapHeap *obs.Counter // Map calls that fell back to a heap read
	seconds *obs.Histogram
}

func loadMetrics() {
	loadObs.once.Do(func() {
		r := obs.Default
		lv := r.CounterVec("snmatch_snapshot_loads_total",
			"Gallery snapshot loads by mode: load (buffered decode), map (zero-copy mmap), map-fallback (Map degraded to a heap read).",
			"mode", "load", "map", "map-fallback")
		loadObs.load = lv.With("load")
		loadObs.mapped = lv.With("map")
		loadObs.mapHeap = lv.With("map-fallback")
		loadObs.seconds = r.Histogram("snmatch_snapshot_load_seconds",
			"Wall time of one snapshot load or map, any mode.", obs.ScaleNanos)
		r.GaugeFunc("snmatch_mapping_refs",
			"Summed reference count across all live snapshot mappings.",
			LiveMappingRefs)
	})
}

// recordLoad books one completed load of the given mode.
func recordLoad(mode *obs.Counter, start time.Time) {
	mode.Inc()
	loadObs.seconds.ObserveDuration(int64(time.Since(start)))
}
