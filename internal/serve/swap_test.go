package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snmatch/internal/fault"
	"snmatch/internal/pipeline"
	"snmatch/internal/serve/snapshot"
)

// mapFixture saves the shared fixture gallery as a v2 snapshot once and
// returns a function minting fresh mappings of it.
func mapFixture(t testing.TB) func() *snapshot.Mapping {
	t.Helper()
	g, _ := fixture(t)
	path := filepath.Join(t.TempDir(), "g.snap")
	snap := &snapshot.Snapshot{Name: "sns1", Meta: snapshot.Meta{Dataset: "sns1", Size: 40, Seed: 6}, Gallery: g}
	if err := snapshot.Save(path, snap); err != nil {
		t.Fatal(err)
	}
	return func() *snapshot.Mapping {
		m, err := snapshot.Map(path)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
}

// waitUnmapped polls until the mapping's last reference is gone — a
// request releases its reference only after it has written its answer.
func waitUnmapped(t *testing.T, m *snapshot.Mapping) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Refs() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("mapping still holds %d refs after drain", m.Refs())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSwapUnderTraffic is the gallery-replacement race regression: a
// stream of /classify requests hammers the server while the gallery is
// replaced (with freshly mapped snapshots) under it. Every request must
// finish wholly on one gallery — the old or the new, never a torn mix,
// never a scan of unmapped memory — and every replaced mapping must be
// released once its last in-flight work drains. Run under -race this
// also pins the handler/registry locking.
func TestSwapUnderTraffic(t *testing.T) {
	mint := mapFixture(t)
	_, queries := fixture(t)
	body := pngBytes(t, queries.Samples[0].Image)

	reg := NewRegistry()
	first := mint()
	if err := reg.AddMapped("sns1", pipeline.NewShardedGallery(first.Snap.Gallery, 2), first.Snap.Meta, first); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(reg, Config{}).Handler())

	const clients = 8
	var (
		stop   atomic.Bool
		served atomic.Int64
		wg     sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, out := postClassify(t, srv.URL+"/classify?pipeline=orb", "image/png", body)
				if resp.StatusCode == http.StatusServiceUnavailable {
					continue // admission shedding is a legal answer mid-swap
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d mid-swap", resp.StatusCode)
					return
				}
				if len(out.Predictions) != 1 || out.Predictions[0].Class == "" {
					t.Errorf("torn response %+v", out)
					return
				}
				served.Add(1)
			}
		}()
	}

	replaced := []*snapshot.Mapping{first}
	for i := 0; i < 25; i++ {
		m := mint()
		if err := reg.AddMapped("sns1", pipeline.NewShardedGallery(m.Snap.Gallery, 2), m.Snap.Meta, m); err != nil {
			t.Fatal(err)
		}
		replaced = append(replaced, m)
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	srv.Close()
	if served.Load() == 0 {
		t.Fatal("no request survived the swap hammer")
	}

	// Everything but the final registered mapping must fully release;
	// the registry still holds the last one's reference.
	last := replaced[len(replaced)-1]
	for _, m := range replaced[:len(replaced)-1] {
		waitUnmapped(t, m)
	}
	if got := last.Refs(); got != 1 {
		t.Fatalf("live mapping holds %d refs, want 1 (registry)", got)
	}
}

// TestRequestHoldsMappingAcrossSwap pins per-request mapping
// retention: a request parked mid-scan keeps the gallery it resolved
// mapped while that gallery is replaced under it — the old mapping then
// holds exactly the request's reference — answers 200 with the serial
// prediction, and releases the mapping to zero once it has answered.
func TestRequestHoldsMappingAcrossSwap(t *testing.T) {
	mint := mapFixture(t)
	g, queries := fixture(t)
	img := queries.Samples[0].Image
	want := pipeline.NewDescriptor(pipeline.ORB, 0.5).Classify(img, g)
	body := pngBytes(t, img)

	reg := NewRegistry()
	m1, m2 := mint(), mint()
	if err := reg.AddMapped("g", pipeline.NewShardedGallery(m1.Snap.Gallery, 2), m1.Snap.Meta, m1); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(reg, Config{}).Handler())
	defer srv.Close()

	defer fault.Disarm()
	if err := fault.Arm("shard-scan:latency:delay=500ms"); err != nil {
		t.Fatal(err)
	}
	before := fault.Fired(fault.ShardScan)
	type answer struct {
		status int
		out    ClassifyResponse
		err    error
	}
	done := make(chan answer, 1)
	go func() {
		var a answer
		resp, err := http.Post(srv.URL+"/classify?pipeline=orb", "image/png", bytes.NewReader(body))
		if err != nil {
			a.err = err
		} else {
			a.status = resp.StatusCode
			a.err = json.NewDecoder(resp.Body).Decode(&a.out)
			resp.Body.Close()
		}
		done <- a
	}()
	for deadline := time.Now().Add(5 * time.Second); fault.Fired(fault.ShardScan) == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the request never reached its shard scan")
		}
	}

	// The request is parked inside its scan: replace the gallery under it.
	if err := reg.AddMapped("g", pipeline.NewShardedGallery(m2.Snap.Gallery, 2), m2.Snap.Meta, m2); err != nil {
		t.Fatal(err)
	}
	if got := m1.Refs(); got != 1 {
		t.Fatalf("replaced mapping holds %d refs mid-request, want 1 (the request's)", got)
	}
	fault.Disarm()

	a := <-done
	if a.err != nil || a.status != http.StatusOK {
		t.Fatalf("parked request: status %d, err %v", a.status, a.err)
	}
	if len(a.out.Predictions) != 1 {
		t.Fatalf("parked request: %d predictions", len(a.out.Predictions))
	}
	if p := a.out.Predictions[0]; p.Class != want.Class.String() || p.View != want.Index || p.Score != want.Score {
		t.Fatalf("parked request served %+v, serial %+v", p, want)
	}
	waitUnmapped(t, m1)
	if got := m2.Refs(); got != 1 {
		t.Fatalf("live mapping holds %d refs, want 1 (registry)", got)
	}
}
