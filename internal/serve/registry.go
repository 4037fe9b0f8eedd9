// Package serve is the recognition serving layer: a registry of
// prepared, sharded galleries and the HTTP handlers the snserve daemon
// exposes. Each request classifies its images on its own goroutines,
// one sharded scan per image, under a gate of worker slots shared by
// all requests. It turns the batch reproduction into a long-lived
// service: galleries are prepared (or snapshot-loaded) once, then
// queried many times.
package serve

import (
	"fmt"
	"sort"
	"sync"

	"snmatch/internal/fault"
	"snmatch/internal/pipeline"
	"snmatch/internal/serve/snapshot"
)

// Resource is the lifecycle of a registered gallery's backing storage —
// concretely a *snapshot.Mapping, whose gallery aliases a memory-mapped
// file and must not be unmapped while anything can still scan it. The
// registry holds one reference for as long as the entry is registered,
// and every in-flight request retains its own until it answers, so
// replacing a gallery under live traffic releases the mapping only
// after the last request classifying on it has returned.
type Resource interface {
	Retain()
	Release()
}

// entry pairs a served gallery with its provenance and backing
// storage, when known.
type entry struct {
	sg      *pipeline.ShardedGallery
	meta    snapshot.Meta
	hasMeta bool
	res     Resource // nil for heap-backed galleries
}

// Registry maps gallery names to sharded galleries for multi-gallery
// serving. It is safe for concurrent use; galleries can be registered
// while traffic is being served.
type Registry struct {
	mu sync.RWMutex
	m  map[string]entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: map[string]entry{}}
}

// Add registers (or replaces) a gallery under name, without provenance.
func (r *Registry) Add(name string, g *pipeline.ShardedGallery) error {
	return r.add(name, entry{sg: g})
}

// AddWithMeta is Add carrying the gallery's snapshot provenance, which
// /healthz reports per gallery.
func (r *Registry) AddWithMeta(name string, g *pipeline.ShardedGallery, meta snapshot.Meta) error {
	return r.add(name, entry{sg: g, meta: meta, hasMeta: true})
}

// AddMapped registers a gallery backed by res (a *snapshot.Mapping),
// transferring the caller's reference to the registry: the registry
// releases it when the entry is replaced, at which point the mapping
// lives on only through the requests still classifying on it.
func (r *Registry) AddMapped(name string, g *pipeline.ShardedGallery, meta snapshot.Meta, res Resource) error {
	return r.add(name, entry{sg: g, meta: meta, hasMeta: true, res: res})
}

func (r *Registry) add(name string, e entry) error {
	// Fault point: a registration/replacement that fails (or stalls)
	// before the swap — the caller keeps ownership of e.res, the
	// currently served gallery stays untouched.
	if err := fault.Check(fault.Swap); err != nil {
		return fmt.Errorf("serve: register %q: %w", name, err)
	}
	if name == "" {
		return fmt.Errorf("serve: gallery name must not be empty")
	}
	if e.sg == nil || e.sg.G == nil {
		return fmt.Errorf("serve: gallery %q is nil", name)
	}
	r.mu.Lock()
	old := r.m[name]
	r.m[name] = e
	r.mu.Unlock()
	if old.sg != nil && old.sg != e.sg {
		serveObs().swaps.Inc()
	}
	if old.res != nil && old.res != e.res {
		// Drop the registry's own reference; in-flight requests hold
		// their own. Re-registering the SAME mapping (e.g. to change
		// the shard count) keeps the one reference the registry owes
		// for the name instead of releasing a still-served one.
		old.res.Release()
	}
	return nil
}

// acquire resolves a request's gallery — the named one, or the sole
// registered gallery when the request names none — and retains its
// backing resource under the registry lock, so the request's scans can
// never race a replacement's final release. The returned name is the
// registry key. The caller must release the entry exactly once.
func (r *Registry) acquire(name string) (string, entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		if len(r.m) != 1 {
			return "", entry{}, fmt.Errorf("serve: request must name a gallery (%d registered)", len(r.m))
		}
		for n := range r.m {
			name = n
		}
	}
	e, ok := r.m[name]
	if !ok {
		return "", entry{}, fmt.Errorf("serve: unknown gallery %q", name)
	}
	if e.res != nil {
		e.res.Retain()
	}
	return name, e, nil
}

// release drops the reference acquire took (a no-op for heap-backed
// galleries).
func (e entry) release() {
	if e.res != nil {
		e.res.Release()
	}
}

// Get returns the gallery registered under name.
func (r *Registry) Get(name string) (*pipeline.ShardedGallery, bool) {
	r.mu.RLock()
	e, ok := r.m[name]
	r.mu.RUnlock()
	return e.sg, ok
}

// Entry returns the gallery registered under name together with its
// snapshot provenance, read under a single lock — so a concurrent
// replacement can never pair one gallery's shape with another's
// provenance. hasMeta reports whether provenance was recorded at all
// (boot-built galleries may not carry one).
func (r *Registry) Entry(name string) (sg *pipeline.ShardedGallery, meta snapshot.Meta, hasMeta, ok bool) {
	r.mu.RLock()
	e, ok := r.m[name]
	r.mu.RUnlock()
	return e.sg, e.meta, e.hasMeta, ok
}

// Names returns the registered gallery names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len returns the number of registered galleries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}
