package main

import (
	"bytes"
	"fmt"
	"image/png"
	"math"

	"snmatch/internal/dataset"
	"snmatch/internal/geom"
	"snmatch/internal/imaging"
	"snmatch/internal/parallel"
	"snmatch/internal/pipeline"
	"snmatch/internal/rng"
	"snmatch/internal/serve/snapshot"
	"snmatch/internal/synth"
)

// Server settings the oracle must mirror: snserve's defaults, which
// every workload keeps.
const (
	serverRatio      = 0.5
	serverShards     = 4
	serverMaxRegions = 32
)

// workload is one traffic mix: which gallery the server boots with, which
// requests it receives, and at what open-loop rate.
type workload struct {
	name string
	why  string
	// path is the request URL path and query.
	path string
	// mmap boots snserve with -mmap (zero-copy snapshot); otherwise the
	// snapshot is decoded onto the heap.
	mmap bool
	// rate is the open-loop arrival rate in requests per second, about
	// half the closed-loop peak_qps of the commit that defined the
	// benchmark, on a 2-vCPU machine.
	rate float64
	// kind is the descriptor family /classify requests use; detect
	// workloads use the hybrid pipeline, which prepares none.
	kind   pipeline.DescriptorKind
	detect bool
	build  func() fixture
}

// fixture is a workload's content: the prepared gallery that becomes the
// snapshot, and the distinct request inputs. Content is fixed per
// workload, so accuracy and the work per request do not change between
// runs; a run's seed orders the inputs and times their arrivals.
type fixture struct {
	meta    snapshot.Meta
	gallery *pipeline.Gallery
	inputs  []input
	// querySize describes the request images, for the run record.
	querySize string
}

// input is one distinct request: the PNG body and its ground truth.
type input struct {
	body    []byte
	class   synth.Class         // classify ground truth
	objects []synth.SceneObject // detect ground truth
}

var workloads = []workload{
	// At 18 req/s the 1000 open-loop samples p99 needs take --seconds
	// 70; shorter runs report the highest percentile their samples
	// support instead (see tail).
	{
		name:  "classify-sift-large",
		why:   "SIFT extraction and the flat scan are almost all of each request; changes to features or to the pipeline match and shard code show here",
		path:  "/classify?pipeline=sift",
		mmap:  true,
		rate:  18,
		kind:  pipeline.SIFT,
		build: buildSIFTLarge,
	},
	{
		name:  "classify-orb-small",
		why:   "compute is ~0.5 of ~4 ms and the batcher's 2 ms window is half of each answer; changes to serve and HTTP show here",
		path:  "/classify?pipeline=orb",
		rate:  250,
		kind:  pipeline.ORB,
		build: buildORBSmall,
	},
	{
		name:   "detect-scenes",
		why:    "PNG decode and contour proposal dominate; no descriptors, one multi-crop batcher job per request",
		path:   "/detect",
		rate:   60,
		detect: true,
		build:  buildScenes,
	},
}

func findWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// buildSIFTLarge is the BenchmarkANNRecall fixture: 440 views of 10
// models at 128 px, queried by 110 unseen poses.
func buildSIFTLarge() fixture {
	const classes, views, perClass, size, seed = 10, 44, 11, 128, 9
	g := pipeline.NewGalleryWorkers(dataset.BuildLargeAt(classes, views, size, seed), 0)
	g.PrepareDescriptorsWorkers(pipeline.SIFT, pipeline.DefaultDescriptorParams(), 0)
	qs := dataset.BuildLargeQueriesAt(classes, perClass, size, seed)
	return fixture{
		meta:      snapshot.Meta{Dataset: "large", Size: size, Seed: seed},
		gallery:   g,
		inputs:    classifyInputs(qs),
		querySize: fmt.Sprintf("%dx%d", size, size),
	}
}

// sns1ORB is the 82-view SNS1 gallery at 64 px and the datasets'
// default seed, with ORB prepared; the orb and scene workloads share it.
func sns1ORB() (*pipeline.Gallery, snapshot.Meta) {
	const size, seed = 64, 1
	g := pipeline.NewGalleryWorkers(dataset.BuildSNS1(dataset.Config{Size: size, Seed: seed}), 0)
	g.PrepareDescriptorsWorkers(pipeline.ORB, pipeline.DefaultDescriptorParams(), 0)
	return g, snapshot.Meta{Dataset: "sns1", Size: size, Seed: seed}
}

func buildORBSmall() fixture {
	g, meta := sns1ORB()
	qs := dataset.BuildSNS2(dataset.Config{Size: meta.Size, Seed: meta.Seed})
	return fixture{meta: meta, gallery: g, inputs: classifyInputs(qs), querySize: "64x64"}
}

// Scene set: numScenes scenes drawn from sceneSeed.
const (
	numScenes = 64
	sceneSeed = 1
)

// buildScenes composes numScenes seeded 320x240 room scenes: 2-4
// objects, occlusion 0 or 0.3, noise sigma 0 or 8, clutter 2.
func buildScenes() fixture {
	g, meta := sns1ORB()
	r := rng.New(sceneSeed).Split("scenes")
	params := make([]synth.SceneParams, numScenes)
	for i := range params {
		classes := make([]synth.Class, 2+r.Intn(3))
		for k := range classes {
			classes[k] = synth.AllClasses[r.Intn(len(synth.AllClasses))]
		}
		params[i] = synth.SceneParams{
			W: 320, H: 240,
			Seed:       r.Uint64(),
			Classes:    classes,
			Occlusion:  []float64{0, 0.3}[r.Intn(2)],
			NoiseSigma: []float64{0, 8}[r.Intn(2)],
			Clutter:    2,
		}
	}
	inputs := make([]input, numScenes)
	parallel.ForEach(0, numScenes, func(i int) {
		sc := synth.ComposeSceneP(params[i])
		inputs[i] = input{body: encodePNG(sc.Image), objects: sc.Objects}
	})
	return fixture{meta: meta, gallery: g, inputs: inputs, querySize: "320x240"}
}

func classifyInputs(qs *dataset.Set) []input {
	inputs := make([]input, qs.Len())
	parallel.ForEach(0, qs.Len(), func(i int) {
		s := qs.Samples[i]
		inputs[i] = input{body: encodePNG(s.Image), class: s.Class}
	})
	return inputs
}

func encodePNG(img *imaging.Image) []byte {
	var buf bytes.Buffer
	if err := png.Encode(&buf, img.ToStdImage()); err != nil {
		panic(fmt.Sprintf("encode png: %v", err)) // in-memory RGBA encode cannot fail
	}
	return buf.Bytes()
}

// decodeBody decodes a request body the way snserve does.
func decodeBody(body []byte) (*imaging.Image, error) {
	if _, err := png.DecodeConfig(bytes.NewReader(body)); err != nil {
		return nil, err
	}
	std, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return imaging.FromStdImage(std), nil
}

// answer is one request's expected (or served) result. Classify answers
// have one region with a zero box.
type answer struct {
	regions []region
}

type region struct {
	box   geom.Rect
	class synth.Class
	view  int
	score float64
}

// reference computes every distinct input's answer in-process on g, the
// gallery loaded from the snapshot the server boots with: serial,
// unsharded Descriptor.Classify for classify, pipeline.Detect for
// scenes. Inputs run concurrently; each answer is computed serially.
func reference(w workload, g *pipeline.Gallery, inputs []input) ([]answer, error) {
	out := make([]answer, len(inputs))
	errs := make([]error, len(inputs))
	var d *pipeline.Descriptor
	if !w.detect {
		d = pipeline.NewDescriptor(w.kind, serverRatio)
	}
	hybrid := pipeline.DefaultHybrid(pipeline.WeightedSum)
	parallel.ForEach(0, len(inputs), func(i int) {
		img, err := decodeBody(inputs[i].body)
		if err != nil {
			errs[i] = err
			return
		}
		if !w.detect {
			p := d.Classify(img, g)
			out[i] = answer{regions: []region{{class: p.Class, view: p.Index, score: p.Score}}}
			return
		}
		dets := pipeline.Detect(img, hybrid, g, pipeline.DetectParams{MaxRegions: serverMaxRegions, Workers: 1})
		a := answer{regions: make([]region, len(dets))}
		for k, det := range dets {
			a.regions[k] = region{box: det.Box, class: det.Class, view: det.Index, score: det.Score}
		}
		out[i] = a
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
	}
	return out, nil
}

// accuracy scores answers against ground truth. Classify: the share of
// inputs whose predicted class is right. Detect: the share of
// ground-truth objects matched at IoU >= 0.5 by a region of the right
// class; each region claims the unmatched object it overlaps best, in
// region order.
func accuracy(w workload, inputs []input, answers []answer) float64 {
	hit, total := 0, 0
	for i, in := range inputs {
		a := answers[i]
		if !w.detect {
			total++
			if a.regions[0].class == in.class {
				hit++
			}
			continue
		}
		total += len(in.objects)
		claimed := make([]bool, len(in.objects))
		for _, r := range a.regions {
			best, bestIoU := -1, 0.5
			for k, obj := range in.objects {
				if v := iou(r.box, obj.Box); !claimed[k] && v >= bestIoU {
					best, bestIoU = k, v
				}
			}
			if best >= 0 {
				claimed[best] = true
				if r.class == in.objects[best].Class {
					hit++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

func iou(a, b geom.Rect) float64 {
	inter := a.Intersect(b).Area()
	if inter == 0 {
		return 0
	}
	return float64(inter) / float64(a.Area()+b.Area()-inter)
}

// order is the seeded request sequence: a permutation of the distinct
// inputs, cycled for as long as a run sends.
func order(seed uint64, n int) []int {
	return rng.New(seed).Split("order").Perm(n)
}

// schedule returns the open-loop due offsets of a seeded Poisson
// process at rate per second, covering dur seconds.
func schedule(seed uint64, rate, dur float64) []float64 {
	r := rng.New(seed).Split("arrivals")
	var out []float64
	for t := 0.0; ; {
		t += -math.Log(1-r.Float64()) / rate
		if t >= dur {
			return out
		}
		out = append(out, t)
	}
}
