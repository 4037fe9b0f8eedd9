package parallel

import "context"

// Gate is a bounded admission counter: at most Cap callers hold it at
// once. The serving layer uses it twice: to shed load at the door —
// TryEnter refuses immediately when the system is saturated instead of
// queueing unbounded work — and to cap the images classifying at once,
// where each query waits for a slot with the context-aware Enter, so
// its deadline bounds the wait. The zero Gate is unusable; construct
// with NewGate.
type Gate struct {
	slots chan struct{}
}

// NewGate returns a gate admitting up to capacity concurrent holders
// (capacity < 1 is treated as 1).
func NewGate(capacity int) *Gate {
	if capacity < 1 {
		capacity = 1
	}
	return &Gate{slots: make(chan struct{}, capacity)}
}

// TryEnter claims a slot without blocking, reporting whether it
// succeeded. Every successful TryEnter must be paired with Leave.
func (g *Gate) TryEnter() bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Enter blocks until a slot frees up or the context is done, returning
// the context's error in the latter case. Every nil return must be
// paired with Leave.
func (g *Gate) Enter(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Leave releases a slot claimed by TryEnter or a successful Enter.
func (g *Gate) Leave() {
	select {
	case <-g.slots:
	default:
		panic("parallel: Gate.Leave without a matching Enter")
	}
}

// InUse returns the number of currently held slots (a snapshot; the
// value may be stale by the time it is read under concurrency).
func (g *Gate) InUse() int { return len(g.slots) }

// Cap returns the gate's capacity.
func (g *Gate) Cap() int { return cap(g.slots) }
