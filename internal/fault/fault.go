// Package fault provides named fault-injection points for the serving
// stack's robustness tests and chaos drills. Each Point is a fixed site
// in the serving path (snapshot read, classify admission, shard scan,
// gallery swap) whose Check call is compiled into the production code
// permanently: while the point is disarmed — the default — Check is a
// single atomic pointer load returning nil, so the zero-allocation warm
// query path is untouched. Arming installs a rule (via the snserve
// -faults flag, the SNMATCH_FAULTS environment variable, or Arm from a
// test) that fires deterministically: a seeded per-call schedule, never
// wall-clock or global randomness, so a failing chaos run reproduces
// exactly.
//
// Rule syntax (Arm):
//
//	point:mode[:key=value]...[,point:mode...]
//
//	snapshot-read:error                     every snapshot read fails
//	classify-admit:error:every=2:after=1    calls 2, 4, 6, ... fail
//	shard-scan:latency:delay=25ms           every shard scan sleeps 25ms
//	swap:panic:p=0.5:seed=7                 seeded coin per due call
//
// Modes: "error" returns ErrInjected from Check, "latency" sleeps for
// delay (default 10ms) and returns nil, "panic" panics with ErrInjected
// (exercising the per-request panic recovery). Scheduling keys: "after"
// skips the first N calls, "every" fires on every Nth call thereafter
// (default 1 = all), "p"/"seed" thin the due calls with a deterministic
// splitmix64 coin. Calls are counted per point.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"snmatch/internal/obs"
)

// Point identifies one fault-injection site.
type Point uint8

const (
	// SnapshotRead guards the snapshot decode/map entry points: an armed
	// error fails Load/Map/Read cleanly instead of handing out a gallery.
	SnapshotRead Point = iota
	// ClassifyAdmit fires once per image handed to classification,
	// before it waits for a worker slot: an armed error refuses that
	// image (the HTTP layer maps it to 503 + Retry-After).
	ClassifyAdmit
	// ShardScan guards the per-shard index scan. Latency stretches one
	// shard's scan mid-query; error and panic both surface as a panic
	// there (the scan's error return is reserved for the context's
	// error), exercising the per-query recovery.
	ShardScan
	// Swap guards registry gallery replacement: an armed error fails the
	// swap before it is applied, latency widens the swap window.
	Swap

	// NumPoints bounds the Point values.
	NumPoints = iota
)

var pointNames = [NumPoints]string{
	"snapshot-read", "classify-admit", "shard-scan", "swap",
}

// String returns the point's wire name (the Arm spec key and the
// snmatch_fault_injections_total label value).
func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return "unknown"
}

// ParsePoint resolves a point name from an Arm spec.
func ParsePoint(s string) (Point, error) {
	for i, n := range pointNames {
		if n == s {
			return Point(i), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown point %q (want %s)", s, strings.Join(pointNames[:], ", "))
}

// Mode is what an armed point does when its schedule fires.
type Mode uint8

const (
	// ModeError makes Check return ErrInjected.
	ModeError Mode = iota
	// ModeLatency makes Check sleep for the rule's delay, then succeed.
	ModeLatency
	// ModePanic makes Check panic with ErrInjected.
	ModePanic
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeLatency:
		return "latency"
	case ModePanic:
		return "panic"
	}
	return "unknown"
}

// ErrInjected is the sentinel every armed error (and panic) carries;
// handlers match it with errors.Is to map injected failures to clean
// 5xx responses instead of opaque internal errors.
var ErrInjected = errors.New("fault: injected failure")

// Rule is one armed point's behaviour. Fields are fixed after Arm; only
// the call counter mutates, atomically.
type Rule struct {
	Mode  Mode
	Every uint64        // fire on every Nth eligible call (>= 1)
	After uint64        // skip the first After calls entirely
	Prob  float64       // thin due calls: fire with this probability (1 = always)
	Seed  uint64        // seeds the per-call Prob coin
	Delay time.Duration // ModeLatency sleep

	calls atomic.Uint64
}

// rules holds the armed rule per point; nil means disarmed. The nil
// check is the entire disarmed cost of a compiled-in Check site.
var rules [NumPoints]atomic.Pointer[Rule]

// fired counts injections per point, independent of the obs registry so
// tests can assert without a scrape.
var fired [NumPoints]atomic.Uint64

// counters are the obs-registry cells (snmatch_fault_injections_total),
// resolved once at first Arm.
var (
	counters  [NumPoints]*obs.Counter
	countOnce atomic.Bool
)

func wireCounters() {
	if countOnce.CompareAndSwap(false, true) {
		names := make([]string, NumPoints)
		copy(names, pointNames[:])
		vec := obs.Default.CounterVec("snmatch_fault_injections_total",
			"Fault-point injections fired (error, latency or panic), by point.",
			"point", names...)
		for i := range counters {
			counters[i] = vec.With(pointNames[i])
		}
	}
}

// Check is the compiled-in fault checkpoint. Disarmed (the default) it
// is one atomic load and a nil return — safe on the zero-allocation
// warm path. Armed, it advances the point's deterministic schedule and
// fires the rule's mode when due: ErrInjected, a latency sleep, or a
// panic.
//
//snmatch:noalloc
func Check(p Point) error {
	r := rules[p].Load()
	if r == nil {
		return nil
	}
	return r.fire(p)
}

func (r *Rule) fire(p Point) error {
	n := r.calls.Add(1) - 1 // 0-based call index
	if n < r.After {
		return nil
	}
	if (n-r.After)%r.Every != 0 {
		return nil
	}
	if r.Prob < 1 && splitmix64(r.Seed+n) >= uint64(r.Prob*float64(1<<63)*2) {
		return nil
	}
	fired[p].Add(1)
	counters[p].Inc()
	switch r.Mode {
	case ModeLatency:
		time.Sleep(r.Delay)
		return nil
	case ModePanic:
		//lint:allow noalloc a firing fault is the cold path by construction; disarmed Check is one atomic load
		panic(fmt.Errorf("%w at %s", ErrInjected, p))
	}
	//lint:allow noalloc a firing fault is the cold path by construction; disarmed Check is one atomic load
	return fmt.Errorf("%w at %s", ErrInjected, p)
}

// Fired reports how many times the point has injected since process
// start (across re-arms).
func Fired(p Point) uint64 { return fired[p].Load() }

// Armed reports whether the point currently has a rule installed.
func Armed(p Point) bool { return rules[p].Load() != nil }

// ArmPoint installs r at p programmatically (tests; Arm parses the
// flag/env form). A nil r disarms the point.
func ArmPoint(p Point, r *Rule) {
	if r != nil {
		wireCounters()
		if r.Every == 0 {
			r.Every = 1
		}
		if r.Prob == 0 {
			r.Prob = 1
		}
		if r.Delay == 0 {
			r.Delay = 10 * time.Millisecond
		}
	}
	rules[p].Store(r)
}

// Disarm removes every armed rule; Check sites return to the
// single-load fast path.
func Disarm() {
	for i := range rules {
		rules[i].Store(nil)
	}
}

// Arm parses and installs a fault spec (see the package comment for
// the syntax). An empty spec is a no-op. Points not named keep their
// current rule; arming the same point twice replaces its rule and
// resets its call counter.
func Arm(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	for _, one := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ';' }) {
		parts := strings.Split(strings.TrimSpace(one), ":")
		if len(parts) < 2 {
			return fmt.Errorf("fault: rule %q: want point:mode[:key=value...]", one)
		}
		p, err := ParsePoint(parts[0])
		if err != nil {
			return err
		}
		r := &Rule{}
		switch parts[1] {
		case "error":
			r.Mode = ModeError
		case "latency":
			r.Mode = ModeLatency
		case "panic":
			r.Mode = ModePanic
		default:
			return fmt.Errorf("fault: rule %q: unknown mode %q (want error, latency or panic)", one, parts[1])
		}
		for _, kv := range parts[2:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("fault: rule %q: bad option %q (want key=value)", one, kv)
			}
			switch k {
			case "every":
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil || n == 0 {
					return fmt.Errorf("fault: rule %q: every=%q must be a positive integer", one, v)
				}
				r.Every = n
			case "after":
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return fmt.Errorf("fault: rule %q: after=%q must be a non-negative integer", one, v)
				}
				r.After = n
			case "p":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || f <= 0 || f > 1 {
					return fmt.Errorf("fault: rule %q: p=%q must be in (0, 1]", one, v)
				}
				r.Prob = f
			case "seed":
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return fmt.Errorf("fault: rule %q: seed=%q must be an integer", one, v)
				}
				r.Seed = n
			case "delay":
				d, err := time.ParseDuration(v)
				if err != nil || d < 0 {
					return fmt.Errorf("fault: rule %q: delay=%q must be a duration", one, v)
				}
				r.Delay = d
			default:
				return fmt.Errorf("fault: rule %q: unknown option %q", one, k)
			}
		}
		ArmPoint(p, r)
	}
	return nil
}

// EnvVar is the environment variable ArmFromEnv reads.
const EnvVar = "SNMATCH_FAULTS"

// splitmix64 is the deterministic per-call coin for p= rules: a fixed
// bijective mixer, so equal seeds produce equal fire schedules on every
// platform.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
