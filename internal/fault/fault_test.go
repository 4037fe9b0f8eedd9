package fault

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDisarmedCheckIsFree pins the disarmed fast path: nil error and
// zero heap allocations — the property that lets Check sites live on
// the zero-allocation warm query path.
func TestDisarmedCheckIsFree(t *testing.T) {
	Disarm()
	for p := Point(0); p < NumPoints; p++ {
		if err := Check(p); err != nil {
			t.Fatalf("disarmed %s returned %v", p, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for p := Point(0); p < NumPoints; p++ {
			Check(p)
		}
	}); n != 0 {
		t.Errorf("disarmed Check allocates %.1f times, want 0", n)
	}
}

// TestArmErrorSchedule pins the after/every schedule: with
// every=2:after=1, 0-based calls 1, 3, 5, ... fire.
func TestArmErrorSchedule(t *testing.T) {
	defer Disarm()
	if err := Arm("classify-admit:error:every=2:after=1"); err != nil {
		t.Fatal(err)
	}
	var got []int
	for i := 0; i < 6; i++ {
		if err := Check(ClassifyAdmit); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("call %d: %v is not ErrInjected", i, err)
			}
			got = append(got, i)
		}
	}
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired at %v, want %v", got, want)
		}
	}
}

// TestLatencyMode pins that latency rules sleep and then succeed.
func TestLatencyMode(t *testing.T) {
	defer Disarm()
	if err := Arm("swap:latency:delay=30ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Check(Swap); err != nil {
		t.Fatalf("latency mode returned %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("latency rule slept %v, want >= 30ms", d)
	}
}

// TestPanicMode pins that panic rules panic with ErrInjected.
func TestPanicMode(t *testing.T) {
	defer Disarm()
	if err := Arm("shard-scan:panic"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic rule did not panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrInjected) {
			t.Fatalf("panicked with %v, want ErrInjected", r)
		}
	}()
	Check(ShardScan)
}

// TestProbDeterministic pins the seeded coin: two identical armings
// fire on exactly the same call indexes, and a different seed gives a
// different (but still reproducible) schedule.
func TestProbDeterministic(t *testing.T) {
	defer Disarm()
	schedule := func(seed string) []int {
		if err := Arm("snapshot-read:error:p=0.5:seed=" + seed); err != nil {
			t.Fatal(err)
		}
		var got []int
		for i := 0; i < 64; i++ {
			if Check(SnapshotRead) != nil {
				got = append(got, i)
			}
		}
		return got
	}
	a, b := schedule("7"), schedule("7")
	if len(a) == 0 || len(a) == 64 {
		t.Fatalf("p=0.5 fired %d/64 times; the coin is not thinning", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed fired %d then %d times", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules: %v vs %v", a, b)
		}
	}
}

// TestArmParseErrors pins clean rejection of malformed specs.
func TestArmParseErrors(t *testing.T) {
	defer Disarm()
	for _, spec := range []string{
		"snapshot-read",            // missing mode
		"bogus-point:error",        // unknown point
		"batcher-enqueue:error",    // renamed point (now classify-admit)
		"swap:bogus",               // unknown mode
		"swap:error:every=0",       // every must be positive
		"swap:error:p=2",           // p out of range
		"swap:error:delay=xyz",     // bad duration
		"swap:error:nonsense",      // option without '='
		"swap:error:mystery=1",     // unknown option
		"swap:error,snapshot-read", // second rule missing mode
	} {
		if err := Arm(spec); err == nil {
			t.Errorf("Arm(%q) accepted a malformed spec", spec)
		}
	}
	if Armed(Swap) && Fired(Swap) > 0 {
		// Partially-applied specs may arm earlier rules; that is fine —
		// the parse error still surfaces. Nothing to assert beyond no
		// panic.
	}
}

// TestArmMultipleRules pins the comma-separated multi-point form and
// that String/ParsePoint round-trip every point.
func TestArmMultipleRules(t *testing.T) {
	defer Disarm()
	if err := Arm("snapshot-read:error, classify-admit:latency:delay=1ms"); err != nil {
		t.Fatal(err)
	}
	if !Armed(SnapshotRead) || !Armed(ClassifyAdmit) {
		t.Fatal("multi-rule spec did not arm both points")
	}
	if Armed(ShardScan) || Armed(Swap) {
		t.Fatal("unnamed points were armed")
	}
	for p := Point(0); p < NumPoints; p++ {
		rt, err := ParsePoint(p.String())
		if err != nil || rt != p {
			t.Fatalf("point %d round-trips to %v, %v", p, rt, err)
		}
	}
	if !strings.Contains(Check(SnapshotRead).Error(), "snapshot-read") {
		t.Fatal("injected error does not name its point")
	}
}

// TestConcurrentCheck hammers an armed point from many goroutines (run
// under -race in CI): the schedule stays exact — every=3 over 300 calls
// fires exactly 100 times.
func TestConcurrentCheck(t *testing.T) {
	defer Disarm()
	before := Fired(ClassifyAdmit)
	if err := Arm("classify-admit:error:every=3"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				Check(ClassifyAdmit)
			}
		}()
	}
	wg.Wait()
	if n := Fired(ClassifyAdmit) - before; n != 100 {
		t.Fatalf("every=3 over 300 concurrent calls fired %d times, want 100", n)
	}
}
