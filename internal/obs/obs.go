// Package obs is the serving stack's observability substrate:
// allocation-free instrumentation primitives (atomic counters, gauges,
// log-bucketed histograms and a fixed-size per-request stage trace)
// behind a named-metric registry that renders Prometheus text
// (/metrics) and a JSON twin (/statz).
//
// The design constraint is the house rule on the warm query path: a
// record — Counter.Inc, Gauge.Add, Histogram.Observe, Trace.Add — is a
// handful of atomic integer operations on pre-registered, fixed-size
// storage. Nothing on the record path allocates, takes a lock, or
// formats a string; all naming, labelling and formatting cost is paid
// once at registration (wire-up) time and once per scrape. Metric
// handles are nil-receiver safe no-ops, so instrumented packages can
// expose an enabled/disabled toggle by swapping a struct pointer
// instead of maintaining dual code paths (the same idiom
// internal/arena uses for its nil-arena heap fallback).
//
// Labelled families (CounterVec, HistogramVec) carry one label with a
// fixed, registration-time value set — enough for per-endpoint,
// per-stage and per-index-kind breakdowns without the allocation and
// hashing cost of open-ended label maps.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter records nothing.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//snmatch:noalloc
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative for the exported value to stay
// monotone; callers own that invariant).
//
//snmatch:noalloc
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to
// use; a nil *Gauge records nothing.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
//
//snmatch:noalloc
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the value by delta (negative deltas decrease it).
//
//snmatch:noalloc
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// CounterVec is a fixed-label-set counter family: one Counter per
// registered label value.
type CounterVec struct {
	label  string
	values []string
	cells  []*Counter
}

// With returns the counter for the given label value. Unknown values
// panic: the value set is fixed at registration, and resolution is
// meant to happen once at wire-up, not per record.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	for i, s := range v.values {
		if s == value {
			return v.cells[i]
		}
	}
	panic(fmt.Sprintf("obs: counter label value %q not registered (have %v)", value, v.values))
}

// HistogramVec is a fixed-label-set histogram family: one Histogram
// per registered label value.
type HistogramVec struct {
	label  string
	values []string
	cells  []*Histogram
}

// With returns the histogram for the given label value; unknown values
// panic (see CounterVec.With).
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	for i, s := range v.values {
		if s == value {
			return v.cells[i]
		}
	}
	panic(fmt.Sprintf("obs: histogram label value %q not registered (have %v)", value, v.values))
}

// family kinds, also the TYPE strings rendered into Prometheus text.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one registered metric name: either a single cell (empty
// label) or a fixed label/value set, or a callback-backed cell.
type family struct {
	name, help string
	kind       string
	label      string   // "" for unlabelled families
	values     []string // label values, parallel to the cell slices

	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	fn       func() int64 // callback counters/gauges (CounterFunc, GaugeFunc)
}

// Registry holds named metric families and renders them. Registration
// is get-or-create by name, so independent packages (and repeated test
// servers) can wire the same metric without coordination; asking for an
// existing name with a different kind or label shape panics — that is
// a wiring bug, not a runtime condition.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	index map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]*family{}}
}

// Default is the process-wide registry the serving stack records into
// and the /metrics and /statz endpoints render.
var Default = NewRegistry()

// lookup returns the family for name after checking its shape, or nil
// if name is unregistered. The caller holds r.mu.
func (r *Registry) lookup(name, kind, label string, values []string) *family {
	f, ok := r.index[name]
	if !ok {
		return nil
	}
	if f.kind != kind || f.label != label || len(f.values) != len(values) {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
	}
	for i := range values {
		if f.values[i] != values[i] {
			panic(fmt.Sprintf("obs: metric %q re-registered with different label values", name))
		}
	}
	return f
}

func (r *Registry) addFamily(f *family) {
	r.fams = append(r.fams, f)
	r.index[f.name] = f
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.lookup(name, kindCounter, "", nil); f != nil {
		return f.counters[0]
	}
	f := &family{name: name, help: help, kind: kindCounter, counters: []*Counter{new(Counter)}}
	r.addFamily(f)
	return f.counters[0]
}

// CounterVec registers (or returns the existing) counter family with
// one label over a fixed value set.
func (r *Registry) CounterVec(name, help, label string, values ...string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, kindCounter, label, values)
	if f == nil {
		f = &family{name: name, help: help, kind: kindCounter, label: label, values: values,
			counters: make([]*Counter, len(values))}
		for i := range f.counters {
			f.counters[i] = new(Counter)
		}
		r.addFamily(f)
	}
	return &CounterVec{label: label, values: f.values, cells: f.counters}
}

// CounterFunc registers a callback-backed counter: fn is read at
// scrape time and must be monotone non-decreasing. Useful for counters
// another package already maintains as a plain atomic (e.g. the arena
// allocator's lifetime byte count) without making it import obs.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.lookup(name, kindCounter, "", nil); f != nil {
		f.fn = fn
		return
	}
	r.addFamily(&family{name: name, help: help, kind: kindCounter, fn: fn})
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.lookup(name, kindGauge, "", nil); f != nil {
		return f.gauges[0]
	}
	f := &family{name: name, help: help, kind: kindGauge, gauges: []*Gauge{new(Gauge)}}
	r.addFamily(f)
	return f.gauges[0]
}

// GaugeFunc registers a callback-backed gauge, read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.lookup(name, kindGauge, "", nil); f != nil {
		f.fn = fn
		return
	}
	r.addFamily(&family{name: name, help: help, kind: kindGauge, fn: fn})
}

// Histogram registers (or returns the existing) histogram under name.
// scale converts recorded integer units to the exported unit (pass
// ScaleNanos for durations recorded in nanoseconds and exported as
// seconds, ScaleNone for dimensionless counts).
func (r *Registry) Histogram(name, help string, scale float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.lookup(name, kindHistogram, "", nil); f != nil {
		return f.hists[0]
	}
	f := &family{name: name, help: help, kind: kindHistogram, hists: []*Histogram{newHistogram(scale)}}
	r.addFamily(f)
	return f.hists[0]
}

// HistogramVec registers (or returns the existing) histogram family
// with one label over a fixed value set.
func (r *Registry) HistogramVec(name, help string, scale float64, label string, values ...string) *HistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, kindHistogram, label, values)
	if f == nil {
		f = &family{name: name, help: help, kind: kindHistogram, label: label, values: values,
			hists: make([]*Histogram, len(values))}
		for i := range f.hists {
			f.hists[i] = newHistogram(scale)
		}
		r.addFamily(f)
	}
	return &HistogramVec{label: label, values: f.values, cells: f.hists}
}

// families returns a stable-ordered copy of the family list for the
// exporters (registration order, which groups related metrics).
func (r *Registry) families() []*family {
	r.mu.Lock()
	out := make([]*family, len(r.fams))
	copy(out, r.fams)
	r.mu.Unlock()
	return out
}

// Names returns the registered metric names, sorted — diagnostics and
// tests.
func (r *Registry) Names() []string {
	r.mu.Lock()
	out := make([]string, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f.name)
	}
	r.mu.Unlock()
	sort.Strings(out)
	return out
}
