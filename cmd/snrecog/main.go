// Command snrecog is the interactive CLI for the recognition library:
// it renders dataset sample sheets, prints dataset statistics, and
// classifies freshly rendered queries with any of the paper's pipelines.
//
// Usage:
//
//	snrecog sheet -dir out/            render a PNG sample sheet per class
//	snrecog stats                      print Table 1 dataset statistics
//	snrecog classify -class Chair -pipeline hybrid [-mode nyu]
//	snrecog scene -classes Chair,Bottle,Lamp    detect-then-classify a composed scene
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"snmatch/internal/cliutil"
	"snmatch/internal/dataset"
	"snmatch/internal/eval"
	"snmatch/internal/histogram"
	"snmatch/internal/moments"
	"snmatch/internal/pipeline"
	"snmatch/internal/serve"
	"snmatch/internal/serve/snapshot"
	"snmatch/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("snrecog: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "sheet":
		cmdSheet(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "classify":
		cmdClassify(os.Args[2:])
	case "scene":
		cmdScene(os.Args[2:])
	case "snapshot":
		cmdSnapshot(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  snrecog sheet -dir DIR [-size N] [-seed N]     render class sample sheets
  snrecog stats [-cap N]                         print Table 1 statistics
  snrecog classify -class NAME [-pipeline P] [-mode shapenet|nyu] [-model N] [-view N] [-workers N] [-snapshot FILE] [-mmap]
      pipelines: random, shape, color, hybrid, sift, surf, orb
  snrecog scene [-classes A,B,C] [-pipeline P] [-occlusion F] [-noise F] [-clutter N] [-seed N] [-out FILE] [-workers N]
      compose a multi-object scene and run detect-then-classify on it
  snrecog snapshot -out FILE [-set sns1|sns2] [-descriptors sift,surf,orb] [-size N] [-seed N] [-name NAME] [-format 2|1]
      prepare a gallery once and persist it for snserve / -snapshot reuse`)
	os.Exit(2)
}

// cmdSnapshot builds a fully prepared gallery and persists it: the
// one-off cost (rendering, descriptor extraction, index construction)
// is paid here so every later `classify -snapshot` or snserve boot
// skips it.
func cmdSnapshot(args []string) {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	out := fs.String("out", "", "output snapshot path (required)")
	set := fs.String("set", "sns1", "gallery dataset: sns1 or sns2")
	descs := fs.String("descriptors", "sift,surf,orb", "descriptor families to prepare")
	size := fs.Int("size", 64, "image side in pixels")
	seed := fs.Uint64("seed", 1, "render seed")
	name := fs.String("name", "", "registry name stored in the snapshot (default: the set name)")
	format := fs.Int("format", snapshot.Version, "snapshot format version: 2 (mmap-able, default) or 1 (legacy back-compat)")
	workers := cliutil.Workers(fs)
	fs.Parse(args)
	if *out == "" {
		log.Fatal("snapshot: -out is required")
	}
	if *format != snapshot.Version && *format != snapshot.VersionV1 {
		log.Fatalf("snapshot: unsupported -format %d (want %d or %d)", *format, snapshot.Version, snapshot.VersionV1)
	}
	w := cliutil.ResolveWorkers(*workers)
	kinds, err := cliutil.ParseDescriptorKinds(*descs)
	if err != nil {
		log.Fatal(err)
	}

	if *name == "" {
		*name = *set
	}

	start := time.Now()
	g, err := cliutil.BuildPreparedGallery(*set, *size, *seed, kinds, w)
	if err != nil {
		log.Fatal(err)
	}
	for _, k := range kinds {
		nd, nv := g.IndexStats(k)
		fmt.Printf("prepared %s: %d descriptors across %d views\n", k, nd, nv)
	}
	snap := &snapshot.Snapshot{
		Name:    *name,
		Meta:    snapshot.Meta{Dataset: *set, Size: *size, Seed: *seed},
		Gallery: g,
	}
	saveFn := snapshot.Save
	if *format == snapshot.VersionV1 {
		saveFn = snapshot.SaveV1
	}
	if err := saveFn(*out, snap); err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (v%d): gallery %q, %d views, %d bytes (prepared in %s)\n",
		*out, *format, *name, g.Len(), st.Size(), time.Since(start).Round(time.Millisecond))
}

func cmdSheet(args []string) {
	fs := flag.NewFlagSet("sheet", flag.ExitOnError)
	dir := fs.String("dir", "sheets", "output directory")
	size := fs.Int("size", 96, "image side in pixels")
	seed := fs.Uint64("seed", 1, "render seed")
	fs.Parse(args)

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatal(err)
	}
	p := synth.Params{Size: *size, Seed: *seed}
	for _, cls := range synth.AllClasses {
		for _, mode := range []synth.Mode{synth.ShapeNetMode, synth.NYUMode} {
			img := synth.RenderView(cls, 0, 0, mode, p)
			name := fmt.Sprintf("%s_%s.png", cls, mode)
			if err := img.SavePNG(filepath.Join(*dir, name)); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("wrote %d sample images to %s\n", 2*len(synth.AllClasses), *dir)
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	cap := fs.Int("cap", 50, "NYU per-class cap (0 = full 6,934-image set)")
	fs.Parse(args)

	cfg := dataset.Config{Size: 48, Seed: 1, NYUPerClassCap: *cap}
	s1 := dataset.BuildSNS1(cfg)
	s2 := dataset.BuildSNS2(cfg)
	ny := dataset.BuildNYU(cfg)
	fmt.Printf("%-8s %14s %14s %10s\n", "Object", "ShapeNetSet1", "ShapeNetSet2", "NYUSet")
	c1, c2, cn := s1.CountByClass(), s2.CountByClass(), ny.CountByClass()
	for _, cls := range synth.AllClasses {
		fmt.Printf("%-8s %14d %14d %10d\n", cls, c1[cls], c2[cls], cn[cls])
	}
	fmt.Printf("%-8s %14d %14d %10d\n", "Total", s1.Len(), s2.Len(), ny.Len())
}

// cmdScene composes a cluttered multi-object scene and runs the
// detect-then-classify loop on it, printing ground truth next to every
// detection so the localisation quality is visible at a glance.
func cmdScene(args []string) {
	fs := flag.NewFlagSet("scene", flag.ExitOnError)
	classList := fs.String("classes", "Chair,Bottle,Lamp", "comma-separated scene object classes")
	pipeName := fs.String("pipeline", "hybrid", "pipeline: shape, color, hybrid, sift, surf, orb")
	width := fs.Int("w", 320, "scene width in pixels")
	height := fs.Int("h", 240, "scene height in pixels")
	occ := fs.Float64("occlusion", 0, "requested overlap between stacked objects [0,1]")
	noise := fs.Float64("noise", 0, "Gaussian pixel-noise sigma")
	clutter := fs.Int("clutter", 2, "background clutter primitives")
	seed := fs.Uint64("seed", 1, "scene seed")
	size := fs.Int("size", 64, "gallery image side in pixels")
	out := fs.String("out", "", "save the composed scene PNG here")
	workers := cliutil.Workers(fs)
	fs.Parse(args)
	w := cliutil.ResolveWorkers(*workers)

	var classes []synth.Class
	for _, name := range strings.Split(*classList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		cls, err := synth.ParseClass(name)
		if err != nil {
			log.Fatal(err)
		}
		classes = append(classes, cls)
	}
	p, err := serve.ParsePipeline(*pipeName, 0.5)
	if err != nil {
		log.Fatal(err)
	}

	sc := synth.ComposeSceneP(synth.SceneParams{
		W: *width, H: *height, Seed: *seed,
		Classes:   classes,
		Occlusion: *occ, NoiseSigma: *noise, Clutter: *clutter,
	})
	if *out != "" {
		if err := sc.Image.SavePNG(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote scene to %s\n", *out)
	}
	fmt.Printf("scene: %dx%d, %d objects, occlusion %.2f, noise %.1f\n",
		*width, *height, len(sc.Objects), *occ, *noise)
	for i, o := range sc.Objects {
		fmt.Printf("  truth %d: %-7s box=(%d,%d %dx%d) occluded=%.2f\n",
			i, o.Class, o.Box.MinX, o.Box.MinY, o.Box.W(), o.Box.H(), o.Occluded)
	}

	fmt.Println("building SNS1 gallery...")
	gallery := pipeline.NewGalleryWorkers(dataset.BuildSNS1(dataset.Config{Size: *size, Seed: 1}), w)
	start := time.Now()
	dets := pipeline.Detect(sc.Image, p, gallery, pipeline.DetectParams{Workers: w})
	fmt.Printf("pipeline %s detected %d regions in %s:\n",
		p.Name(), len(dets), time.Since(start).Round(time.Millisecond))
	for i, d := range dets {
		fmt.Printf("  region %d: %-7s box=(%d,%d %dx%d) score=%.5f\n",
			i, d.Class, d.Box.MinX, d.Box.MinY, d.Box.W(), d.Box.H(), d.Score)
	}
}

func cmdClassify(args []string) {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	clsName := fs.String("class", "Chair", "true class of the rendered query")
	pipeName := fs.String("pipeline", "hybrid", "pipeline: random, shape, color, hybrid, sift, surf, orb")
	modeName := fs.String("mode", "nyu", "query rendering mode: shapenet or nyu")
	model := fs.Int("model", 42, "query model id (unseen ids exercise generalisation)")
	view := fs.Int("view", 0, "query view index")
	size := fs.Int("size", 64, "image side in pixels")
	seed := fs.Uint64("seed", 1, "render seed")
	snapPath := fs.String("snapshot", "", "gallery snapshot: load it when the file exists, otherwise build, prepare and save it")
	mmap := fs.Bool("mmap", false, "memory-map the -snapshot file (v2, zero-copy) instead of decoding it")
	workers := cliutil.Workers(fs)
	fs.Parse(args)
	w := cliutil.ResolveWorkers(*workers)

	cls, err := synth.ParseClass(*clsName)
	if err != nil {
		log.Fatal(err)
	}
	mode := synth.NYUMode
	if *modeName == "shapenet" {
		mode = synth.ShapeNetMode
	}

	var p pipeline.Pipeline
	switch *pipeName {
	case "random":
		p = pipeline.NewRandom(*seed)
	case "shape":
		p = pipeline.ShapeOnly{Method: moments.MatchI3}
	case "color":
		p = pipeline.ColorOnly{Metric: histogram.Hellinger}
	case "hybrid":
		p = pipeline.DefaultHybrid(pipeline.WeightedSum)
	case "sift":
		p = pipeline.NewDescriptor(pipeline.SIFT, 0.5)
	case "surf":
		p = pipeline.NewDescriptor(pipeline.SURF, 0.5)
	case "orb":
		p = pipeline.NewDescriptor(pipeline.ORB, 0.5)
	default:
		log.Fatalf("unknown pipeline %q", *pipeName)
	}

	cfg := dataset.Config{Size: *size, Seed: *seed}
	meta := snapshot.Meta{Dataset: "sns1", Size: *size, Seed: *seed}
	var gallery *pipeline.Gallery
	if *snapPath != "" && *mmap {
		start := time.Now()
		m, err := cliutil.MapSnapshotIfExists(*snapPath, meta)
		if err != nil {
			log.Fatal(err)
		}
		if m != nil {
			defer m.Close() // classification finishes before main returns
			gallery = m.Snap.Gallery
			fmt.Printf("mapped gallery %q from %s in %s (zero-copy)\n",
				m.Snap.Name, *snapPath, time.Since(start).Round(time.Microsecond))
		}
	} else if *snapPath != "" {
		start := time.Now()
		snap, err := cliutil.LoadSnapshotIfExists(*snapPath, meta)
		if err != nil {
			log.Fatal(err)
		}
		if snap != nil {
			gallery = snap.Gallery
			fmt.Printf("loaded gallery %q from %s in %s (no re-extraction)\n",
				snap.Name, *snapPath, time.Since(start).Round(time.Millisecond))
		}
	}
	snapLoaded := gallery != nil
	if gallery == nil {
		fmt.Println("building SNS1 gallery...")
		gallery = pipeline.NewGalleryWorkers(dataset.BuildSNS1(cfg), w)
	}

	query := synth.RenderView(cls, *model, *view, mode, synth.Params{Size: *size, Seed: *seed})
	if prep, ok := p.(pipeline.Preparer); ok {
		prep.Prepare(gallery, w)
	}
	if *snapPath != "" && !snapLoaded {
		if err := cliutil.SaveSnapshot(*snapPath, meta, gallery); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved prepared gallery to %s for future runs\n", *snapPath)
	}
	if d, ok := p.(*pipeline.Descriptor); ok {
		nd, nv := gallery.IndexStats(d.Kind)
		fmt.Printf("index:      %d %s descriptors across %d views\n", nd, d.Kind, nv)
	}
	pred := p.Classify(query, gallery)
	fmt.Printf("pipeline:   %s\n", p.Name())
	fmt.Printf("truth:      %s (model %d, view %d, %s mode)\n", cls, *model, *view, mode)
	fmt.Printf("prediction: %s (gallery view %d, score %.5f)\n", pred.Class, pred.Index, pred.Score)
	if pred.Class == cls {
		fmt.Println("result:     correct")
	} else {
		fmt.Println("result:     wrong")
	}

	// Context: how often is this pipeline right on a 30-query sample?
	qs := dataset.BuildNYUSubset(dataset.Config{Size: *size, Seed: *seed + 9}, 3)
	preds, truth := pipeline.RunParallel(p, qs, gallery, w)
	fmt.Printf("sample accuracy over %d fresh queries: %.2f\n",
		qs.Len(), eval.Evaluate(truth, preds).Cumulative)
}
