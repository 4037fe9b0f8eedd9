// Package arena provides the scratch-buffer recycler behind the
// zero-allocation query path: a per-context, type-segregated free list
// that loans out slices (and struct headers) for the duration of one
// extraction, then reclaims every loan at Reset. A warm arena — one that
// has already served a query of the same shape — satisfies the whole
// extraction working set (grayscale planes, Gaussian pyramids, integral
// tables, response grids, descriptor matrices) without touching the
// heap.
//
// Loans are zeroed on checkout, so arena-backed buffers are
// indistinguishable from make()'d ones and pooled extraction stays
// byte-identical to fresh extraction. An Arena is not safe for
// concurrent use: each worker (or in-flight request) owns its own, which
// is exactly the per-worker extraction-context discipline the pipeline
// and serving layers enforce.
//
// Every allocator in this package is nil-receiver safe and falls back to
// the plain heap when the arena is nil, so call sites thread one
// optional *Arena instead of maintaining dual code paths.
package arena

import (
	"math/bits"
	"reflect"
	"sync/atomic"
	"unsafe"
)

// totalAllocated counts every byte of fresh buffer capacity any arena
// in the process has ever drawn from the heap. It only moves on the
// cold path (a loan no free buffer could satisfy), so the atomic add
// costs nothing at steady state — a warm arena never touches it.
var totalAllocated atomic.Int64

// TotalAllocated returns the process-lifetime bytes of arena buffer
// capacity allocated from the heap — the observability feed for the
// arena footprint metric (a counter: arenas never shrink, and pooled
// contexts dropped for GC are not subtracted).
func TotalAllocated() int64 { return totalAllocated.Load() }

// recycler is the type-erased view of a typed pool that Reset iterates.
type recycler interface{ recycle() }

// Arena is a size-classed, type-segregated free-list allocator. The
// zero value is not usable; call New.
type Arena struct {
	pools map[reflect.Type]recycler
	bytes int // total capacity ever allocated, in bytes (never shrinks)
}

// New returns an empty arena.
func New() *Arena { return &Arena{pools: map[reflect.Type]recycler{}} }

// Footprint returns the total bytes of buffer capacity the arena has
// accumulated (and will retain until it is garbage). Pools never
// shrink, so this is the arena's high-water mark; owners of pooled
// arenas use it to drop instances that one oversized workload
// inflated.
func (a *Arena) Footprint() int {
	if a == nil {
		return 0
	}
	return a.bytes
}

// Reset reclaims every buffer loaned since the previous Reset, making
// them available for reuse. All slices and pointers obtained from the
// arena are invalid afterwards; callers must not retain them across a
// Reset. Resetting a nil arena is a no-op.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	for _, p := range a.pools {
		p.recycle()
	}
}

// numClasses covers capacities up to 2^31 on 32-bit and beyond on
// 64-bit platforms (class k holds buffers of capacity exactly 1<<k).
const numClasses = 48

// minClass floors tiny asks at capacity 8 so one buffer serves many of
// them.
const minClass = 3

// classOf returns the size class whose capacity (1 << class) is the
// smallest power of two >= n.
func classOf(n int) int {
	if n <= 1<<minClass {
		return minClass
	}
	return bits.Len(uint(n - 1))
}

// pool holds the free and loaned buffers of one element type. Free
// buffers are bucketed by size class, and every buffer is allocated at
// exactly its class capacity — so a loan pops the last buffer of the
// first non-empty class >= classOf(n) in O(1) amortised time instead
// of best-fit scanning a flat list (which would make per-keypoint
// descriptor-row loans quadratic in the keypoint count).
type pool[T any] struct {
	free   [numClasses][][]T // free[k]: idle buffers of capacity 1<<k
	loaned [][]T             // buffers handed out since the last recycle
}

func (p *pool[T]) recycle() {
	for _, b := range p.loaned {
		k := classOf(cap(b))
		p.free[k] = append(p.free[k], b)
	}
	clear(p.loaned)
	p.loaned = p.loaned[:0]
}

// loan returns a full-capacity buffer with cap >= n, reusing a free
// one when possible; fresh allocations are charged to the arena's
// footprint counter. Contents are NOT cleared here.
func (p *pool[T]) loan(n int, footprint *int) []T {
	k := classOf(n)
	for c := k; c < numClasses; c++ {
		if last := len(p.free[c]) - 1; last >= 0 {
			buf := p.free[c][last]
			p.free[c][last] = nil
			p.free[c] = p.free[c][:last]
			p.loaned = append(p.loaned, buf)
			return buf
		}
	}
	buf := make([]T, 1<<k)
	sz := (1 << k) * int(unsafe.Sizeof(*new(T)))
	*footprint += sz
	totalAllocated.Add(int64(sz))
	p.loaned = append(p.loaned, buf)
	return buf
}

// typeKey returns a stable, allocation-free map key for T.
func typeKey[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)) }

func poolOf[T any](a *Arena) *pool[T] {
	k := typeKey[T]()
	if p, ok := a.pools[k]; ok {
		return p.(*pool[T])
	}
	p := &pool[T]{}
	a.pools[k] = p
	return p
}

// Slice returns a zeroed slice of length n, drawn from the arena's
// size-classed free lists when a buffer of sufficient capacity is idle
// and from the heap otherwise. With a nil arena it is exactly
// make([]T, n).
func Slice[T any](a *Arena, n int) []T {
	if a == nil {
		return make([]T, n)
	}
	if n == 0 {
		// A zero-length make is allocation-free (zerobase); taking a
		// pooled buffer for it would just strand capacity.
		return make([]T, 0)
	}
	s := poolOf[T](a).loan(n, &a.bytes)[:n]
	clear(s) // loans must be indistinguishable from make()
	return s
}

// Cap returns an empty slice with capacity at least n — the append
// accumulator counterpart of Slice for call sites that know an upper
// bound up front. Appends within the capacity never touch the heap.
// The backing memory is not zeroed (a length-0 loan exposes no stale
// data, and every element is assigned by the append that makes it
// visible), so accumulator checkouts skip Slice's memset.
func Cap[T any](a *Arena, n int) []T {
	if a == nil {
		return make([]T, 0, n)
	}
	if n == 0 {
		return make([]T, 0)
	}
	return poolOf[T](a).loan(n, &a.bytes)[:0]
}

// NewOf returns a pointer to a zeroed T backed by the arena — the pooled
// replacement for new(T) / &T{} struct headers on the query path. The
// pointee is reclaimed (and later reused) by Reset.
func NewOf[T any](a *Arena) *T {
	if a == nil {
		return new(T)
	}
	s := Slice[T](a, 1)
	return &s[0]
}
