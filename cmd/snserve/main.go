// Command snserve is the recognition daemon: it loads (or builds)
// prepared galleries, shards their flat matching indexes, and serves
// classification over HTTP with bounded admission and a fixed number of
// classification worker slots (-workers).
//
// Usage:
//
//	snserve -snapshot sns1.snap [-snapshot more.snap] [-addr :8080] [-shards 4]
//	snserve -snapshot sns1.snap -mmap                             # zero-copy map the (v2) snapshot instead of decoding it
//	snserve -build sns1 [-size 64] [-descriptors sift,surf,orb]   # no snapshot: render + extract at boot
//	snserve -snapshot sns1.snap -admin 6060                       # admin mux on 127.0.0.1:6060 (/metrics, /statz, /debug/pprof/)
//	snserve -snapshot sns1.snap -slowlog-ms 250                   # JSON slow-query log for requests >= 250ms
//	snserve -snapshot sns1.snap -request-timeout 500ms            # 504 (with partial stage trace) past the deadline
//	snserve -snapshot sns1.snap -faults shard-scan:latency:delay=100ms:every=50   # fault injection (also $SNMATCH_FAULTS)
//
// Port layout: the serving address (-addr, default :8080) carries the
// public endpoints, including /metrics and /statz so scrapers reach the
// daemon without extra wiring. The optional admin port (-admin, always
// bound to 127.0.0.1) carries the same /metrics and /statz plus the
// net/http/pprof profiling handlers — profiling never rides the public
// listener.
//
// Endpoints (serving mux):
//
//	POST /classify?gallery=NAME&pipeline=P   raw PNG body, or JSON {"images": [base64 PNG, ...]}
//	POST /detect?gallery=NAME&pipeline=P     raw PNG scene body -> per-region classifications
//	GET  /galleries                          registered galleries and their prepared indexes
//	GET  /healthz                            liveness + admission stats
//	GET  /metrics                            Prometheus text metrics
//	GET  /statz                              the same metrics as JSON (count/mean/p50/p90/p99)
//
// SIGINT/SIGTERM drain in-flight requests and exit cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on the default mux, served only on -admin
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"snmatch/internal/cliutil"
	"snmatch/internal/fault"
	"snmatch/internal/obs"
	"snmatch/internal/pipeline"
	"snmatch/internal/serve"
	"snmatch/internal/serve/snapshot"
)

// snapshotList collects repeated -snapshot flags.
type snapshotList []string

func (s *snapshotList) String() string     { return strings.Join(*s, ",") }
func (s *snapshotList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("snserve: ")

	var snaps snapshotList
	fs := flag.CommandLine
	fs.Var(&snaps, "snapshot", "gallery snapshot to serve (repeatable)")
	mmap := fs.Bool("mmap", false, "memory-map v2 snapshots (zero-copy load off the page cache) instead of decoding them onto the heap")
	build := fs.String("build", "", "build a gallery at boot instead: sns1 or sns2")
	descs := fs.String("descriptors", "sift,surf,orb", "descriptor families to prepare for a built gallery")
	size := fs.Int("size", 64, "render size for a built gallery")
	seed := fs.Uint64("seed", 1, "render seed for a built gallery")
	addr := fs.String("addr", ":8080", "listen address")
	shards := fs.Int("shards", 4, "index shards scanned in parallel per query")
	maxInFlight := fs.Int("max-inflight", 256, "admission bound on concurrent /classify requests")
	ratio := fs.Float64("ratio", 0.5, "descriptor ratio-test threshold")
	maxRegions := fs.Int("max-regions", 32, "region proposals classified per /detect scene")
	adminPort := fs.Int("admin", 0, "serve the admin mux (/metrics, /statz, /debug/pprof/) on 127.0.0.1:PORT (0 disables)")
	slowlogMS := fs.Int("slowlog-ms", 0, "log requests slower than this as JSON lines on stderr (0 disables)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request deadline for /classify and /detect; expired requests get 504 with their partial stage trace (0 disables)")
	faults := fs.String("faults", os.Getenv(fault.EnvVar),
		"fault-injection spec, e.g. 'classify-admit:error:every=100'; points: snapshot-read, classify-admit, shard-scan, swap (default $"+fault.EnvVar+")")
	workers := cliutil.Workers(fs)
	flag.Parse()
	w := cliutil.ResolveWorkers(*workers)
	if *faults != "" {
		// Armed before any snapshot read, so boot-path faults (e.g.
		// snapshot-read:error) fire too. Disarmed runs compile every
		// fault point down to one atomic load.
		if err := fault.Arm(*faults); err != nil {
			log.Fatal(err)
		}
		log.Printf("fault injection armed: %s", *faults)
	}

	reg := serve.NewRegistry()
	for _, path := range snaps {
		start := time.Now()
		if *mmap {
			// The mapping's reference transfers to the registry; it lives
			// for the process (a replacement would release it once the
			// last request using it answers).
			m, err := snapshot.Map(path)
			if err != nil {
				log.Fatalf("map %s: %v", path, err)
			}
			snap := m.Snap
			if err := reg.AddMapped(snap.Name, pipeline.NewShardedGallery(snap.Gallery, *shards), snap.Meta, m); err != nil {
				log.Fatal(err)
			}
			log.Printf("mapped gallery %q from %s: %d views, %d bytes (dataset %q, size %d, seed %d) in %s (zero-copy)",
				snap.Name, path, snap.Gallery.Len(), m.Size(), snap.Meta.Dataset, snap.Meta.Size, snap.Meta.Seed,
				time.Since(start).Round(time.Microsecond))
			continue
		}
		snap, err := snapshot.Load(path)
		if err != nil {
			log.Fatalf("load %s: %v", path, err)
		}
		if err := reg.AddWithMeta(snap.Name, pipeline.NewShardedGallery(snap.Gallery, *shards), snap.Meta); err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded gallery %q from %s: %d views (dataset %q, size %d, seed %d) in %s (no re-extraction)",
			snap.Name, path, snap.Gallery.Len(), snap.Meta.Dataset, snap.Meta.Size, snap.Meta.Seed,
			time.Since(start).Round(time.Millisecond))
	}
	if *build != "" {
		name, g := buildGallery(*build, *size, *seed, *descs, w)
		meta := snapshot.Meta{Dataset: name, Size: *size, Seed: *seed}
		if err := reg.AddWithMeta(name, pipeline.NewShardedGallery(g, *shards), meta); err != nil {
			log.Fatal(err)
		}
	}
	if reg.Len() == 0 {
		log.Fatal("nothing to serve: pass -snapshot and/or -build (e.g. -build sns1)")
	}

	srv := serve.New(reg, serve.Config{
		Workers:     w,
		MaxInFlight: *maxInFlight,
		Ratio:       *ratio,
		MaxRegions:  *maxRegions,
		SlowLog:     time.Duration(*slowlogMS) * time.Millisecond,

		RequestTimeout: *reqTimeout,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	if *adminPort > 0 {
		// The admin mux stays loopback-only and off the serving listener:
		// metrics and statz for local inspection, plus the pprof handlers
		// (registered on http.DefaultServeMux by the blank import), which
		// only this listener exposes.
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", obs.PromHandler(obs.Default))
		mux.HandleFunc("/statz", obs.StatzHandler(obs.Default))
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		adminAddr := fmt.Sprintf("127.0.0.1:%d", *adminPort)
		go func() {
			log.Printf("admin mux listening on http://%s (/metrics, /statz, /debug/pprof/)", adminAddr)
			if err := http.ListenAndServe(adminAddr, mux); err != nil {
				log.Printf("admin: %v", err)
			}
		}()
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	log.Printf("serving %d galleries on %s (shards=%d inflight=%d)",
		reg.Len(), *addr, *shards, *maxInFlight)

	select {
	case err := <-done:
		log.Fatalf("listen: %v", err)
	case <-ctx.Done():
	}
	log.Print("shutting down...")
	shutdownCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	log.Print("bye")
}

// buildGallery renders and prepares a gallery at boot — the snapshotless
// path for development; production boots should load snapshots.
func buildGallery(set string, size int, seed uint64, descs string, workers int) (string, *pipeline.Gallery) {
	kinds, err := cliutil.ParseDescriptorKinds(descs)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	g, err := cliutil.BuildPreparedGallery(set, size, seed, kinds, workers)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("built gallery %q: %d views prepared in %s", set, g.Len(), time.Since(start).Round(time.Millisecond))
	return set, g
}
