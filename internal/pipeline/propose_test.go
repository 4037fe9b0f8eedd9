package pipeline

import (
	"math"
	"sort"
	"testing"

	"snmatch/internal/contour"
	"snmatch/internal/geom"
	"snmatch/internal/imaging"
	"snmatch/internal/rng"
	"snmatch/internal/synth"
)

// foregroundMaskRef is the mask the lookup table replaced, kept as its
// reference: an int histogram and, per pixel, a loop over the peeled
// modes testing each channel's distance.
func foregroundMaskRef(img *imaging.Image, tol int) *imaging.Gray {
	const levels = 1 << bgBinBits
	const shift = 8 - bgBinBits
	hist := make([]int, levels*levels*levels)
	for i := 0; i < len(img.Pix); i += 3 {
		idx := (int(img.Pix[i])>>shift)<<(2*bgBinBits) |
			(int(img.Pix[i+1])>>shift)<<bgBinBits |
			int(img.Pix[i+2])>>shift
		hist[idx]++
	}
	minPeak := (len(img.Pix) / 3) / 50
	var modes [][3]int
	for len(modes) < bgMaxModes {
		best, bestC := -1, 0
		for v, c := range hist {
			if c > bestC {
				best, bestC = v, c
			}
		}
		if best < 0 || bestC < minPeak {
			break
		}
		mode := [3]int{
			(best>>(2*bgBinBits))<<shift | 1<<(shift-1),
			(best>>bgBinBits&(levels-1))<<shift | 1<<(shift-1),
			(best&(levels-1))<<shift | 1<<(shift-1),
		}
		modes = append(modes, mode)
		for v := range hist {
			if hist[v] == 0 {
				continue
			}
			cr := (v>>(2*bgBinBits))<<shift | 1<<(shift-1)
			cg := (v>>bgBinBits&(levels-1))<<shift | 1<<(shift-1)
			cb := (v&(levels-1))<<shift | 1<<(shift-1)
			if absInt(cr-mode[0]) <= tol && absInt(cg-mode[1]) <= tol && absInt(cb-mode[2]) <= tol {
				hist[v] = 0
			}
		}
	}
	fg := imaging.NewGray(img.W, img.H)
	for p, i := 0, 0; p < len(fg.Pix); p, i = p+1, i+3 {
		bg := false
		for _, m := range modes {
			if absInt(int(img.Pix[i])-m[0]) <= tol &&
				absInt(int(img.Pix[i+1])-m[1]) <= tol &&
				absInt(int(img.Pix[i+2])-m[2]) <= tol {
				bg = true
				break
			}
		}
		if !bg {
			fg.Pix[p] = 255
		}
	}
	return fg
}

// proposeFromRef is the proposal body the border summaries replaced,
// kept as its reference: it traces every border's points with
// FindContours and filters, pads and orders the contours' boxes.
func proposeFromRef(img *imaging.Image, fg *imaging.Gray, p DetectParams) []geom.Rect {
	cs := contour.FindContours(fg)
	var boxes []geom.Rect
	for i := range cs {
		c := &cs[i]
		if c.Hole || c.Area() < p.MinArea {
			continue
		}
		b := c.BoundingBox().Inset(-p.Pad).ClampTo(img.W, img.H)
		if !b.Empty() {
			boxes = append(boxes, b)
		}
	}
	kept := boxes[:0]
	for i, b := range boxes {
		contained := false
		for j, o := range boxes {
			if i != j && o.Intersect(b) == b && (o != b || j < i) {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, b)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.MinY != b.MinY {
			return a.MinY < b.MinY
		}
		if a.MinX != b.MinX {
			return a.MinX < b.MinX
		}
		if a.MaxY != b.MaxY {
			return a.MaxY < b.MaxY
		}
		return a.MaxX < b.MaxX
	})
	if len(kept) > p.MaxRegions {
		kept = kept[:p.MaxRegions]
	}
	return kept
}

// maskTestImages returns small room scenes (clean and noisy) and flat
// colour patchworks under noise: inputs with one to four background
// modes, and with none.
func maskTestImages(r *rng.RNG) []*imaging.Image {
	var imgs []*imaging.Image
	for k := 0; k < 8; k++ {
		sp := synth.SceneParams{
			W: r.IntRange(60, 200), H: r.IntRange(50, 160), Seed: uint64(k + 1),
			Classes: []synth.Class{synth.AllClasses[r.Intn(len(synth.AllClasses))]},
			Clutter: r.Intn(3),
		}
		if k%2 == 1 {
			sp.NoiseSigma = 8
		}
		imgs = append(imgs, synth.ComposeSceneP(sp).Image)
	}
	for k := 0; k < 8; k++ {
		w, h := r.IntRange(1, 90), r.IntRange(1, 90)
		img := imaging.NewImage(w, h)
		for c := r.IntRange(1, 6); c > 0; c-- {
			col := imaging.C(uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256)))
			x0, y0 := r.Intn(w), r.Intn(h)
			img.FillRect(geom.R(x0, y0, x0+r.IntRange(1, w), y0+r.IntRange(1, h)), col)
		}
		sigma := []float64{0, 3, 40}[k%3]
		for i := range img.Pix {
			v := float64(img.Pix[i]) + sigma*r.Norm()
			img.Pix[i] = uint8(math.Max(0, math.Min(255, math.Round(v))))
		}
		imgs = append(imgs, img)
	}
	return imgs
}

// maskOfPlane reads the binary image a filled trace plane holds as a
// Gray, 255 where a cell is not zero.
func maskOfPlane(f []int8, w, h int) *imaging.Gray {
	g := imaging.NewGray(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if f[(y+1)*(w+2)+x+1] != 0 {
				g.Pix[y*w+x] = 255
			}
		}
	}
	return g
}

// TestForegroundMaskMatchesReference requires the occupied-bin,
// table-driven mask in the trace plane to equal the per-mode loop's at
// tolerances from 1 to past 255, with one scratch plane reused across
// every image, so a stale plane cell would show.
func TestForegroundMaskMatchesReference(t *testing.T) {
	r := rng.New(233)
	var s contour.Scratch
	for k, img := range maskTestImages(r) {
		for _, tol := range []int{1, 4, 12, 40, 255, 1000} {
			want, got := foregroundMaskRef(img, tol), maskOfPlane(foregroundMask(&s, img, tol), img.W, img.H)
			for i := range want.Pix {
				if want.Pix[i] != got.Pix[i] {
					t.Fatalf("image %d (%dx%d) tol %d: pixel %d = %d, want %d", k, img.W, img.H, tol, i, got.Pix[i], want.Pix[i])
				}
			}
		}
	}
}

// TestCountMatchesPerPixelHistogram requires the run-weighted count to
// equal one increment per pixel, its occupied list to hold each
// non-zero bin once, and its repeated-row marks to match the rows.
func TestCountMatchesPerPixelHistogram(t *testing.T) {
	r := rng.New(235)
	imgs := maskTestImages(r)
	// Rows repeating in runs, and a raster that is one colour.
	striped := imaging.NewImage(9, 12)
	for y := 0; y < striped.H; y++ {
		for x := 0; x < striped.W; x++ {
			striped.Set(x, y, imaging.C(uint8(40*(y/4)), uint8(8*x), 200))
		}
	}
	imgs = append(imgs, striped, imaging.NewImageFilled(5, 7, imaging.C(1, 2, 3)))
	for k, img := range imgs {
		const shift = 8 - bgBinBits
		hist, occ, same := countBins(img)
		want := make([]int32, len(hist))
		for i := 0; i < len(img.Pix); i += 3 {
			want[int(img.Pix[i]>>shift)<<(2*bgBinBits)|int(img.Pix[i+1]>>shift)<<bgBinBits|int(img.Pix[i+2]>>shift)]++
		}
		listed := map[uint16]bool{}
		for _, v := range occ {
			if listed[v] || want[v] == 0 {
				t.Fatalf("image %d: bin %d listed twice or empty", k, v)
			}
			listed[v] = true
		}
		for v, n := range want {
			if hist[v] != n || (n != 0) != listed[uint16(v)] {
				t.Fatalf("image %d: bin %d counts %d (listed %v), want %d", k, v, hist[v], listed[uint16(v)], n)
			}
		}
		s := 3 * img.W
		for y := range same {
			if want := y > 0 && string(img.Pix[y*s:(y+1)*s]) == string(img.Pix[(y-1)*s:y*s]); same[y] != want {
				t.Fatalf("image %d: row %d marked same=%v, want %v", k, y, same[y], want)
			}
		}
	}
}

// TestProposalsMatchReference requires ProposeCrops to return the
// reference proposal's boxes, in order, with each crop its box of the
// scene with background pixels blackened.
func TestProposalsMatchReference(t *testing.T) {
	r := rng.New(234)
	for k, img := range maskTestImages(r) {
		for _, dp := range []DetectParams{{}, {BgTol: 4}, {BgTol: 40, MinArea: 2, Pad: 1}, {MaxRegions: 2}} {
			checkProposals(t, img, dp)
			if t.Failed() {
				t.Fatalf("image %d (%dx%d) params %+v", k, img.W, img.H, dp)
			}
		}
	}
}

// checkProposals checks one image's proposals against the reference
// path: the same boxes from ProposeCrops, every box inside the image,
// and every crop equal to its box with the background blackened.
func checkProposals(t *testing.T, img *imaging.Image, dp DetectParams) {
	t.Helper()
	p := dp.withDefaults()
	fg := foregroundMaskRef(img, p.BgTol)
	want := proposeFromRef(img, fg, p)
	boxes, crops := ProposeCrops(img, dp)
	if len(boxes) != len(want) || len(crops) != len(want) {
		t.Errorf("%d boxes, %d crops; want %d boxes", len(boxes), len(crops), len(want))
		return
	}
	for i, b := range want {
		if boxes[i] != b {
			t.Errorf("box %d: %+v, want %+v", i, boxes[i], b)
			return
		}
		if b.MinX < 0 || b.MinY < 0 || b.MaxX > img.W || b.MaxY > img.H || b.Empty() {
			t.Errorf("box %d %+v outside the %dx%d image", i, b, img.W, img.H)
			return
		}
		c := crops[i]
		if c.W != b.W() || c.H != b.H() {
			t.Errorf("crop %d is %dx%d, box %+v", i, c.W, c.H, b)
			return
		}
		for y := 0; y < c.H; y++ {
			for x := 0; x < c.W; x++ {
				want := img.At(b.MinX+x, b.MinY+y)
				if fg.At(b.MinX+x, b.MinY+y) == 0 {
					want = imaging.Black
				}
				if got := c.At(x, y); got != want {
					t.Errorf("crop %d pixel (%d,%d) = %v, want %v", i, x, y, got, want)
					return
				}
			}
		}
	}
}

// TestProposeCropsAllocsIndependentOfBorderPoints is the proposal
// allocation gate: ProposeCrops allocates its working set (histogram,
// occupied bins, repeated-row marks, trace plane, box list) and the
// crop list, plus a header and pixels per crop, however many border
// points the scene's noise produces. The noisy scene traces about 30k
// border points over 2.5k borders.
func TestProposeCropsAllocsIndependentOfBorderPoints(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	for _, noise := range []float64{0, 8} {
		sc := synth.ComposeSceneP(synth.SceneParams{
			W: 320, H: 240, Seed: 5,
			Classes:    []synth.Class{synth.Chair, synth.Lamp, synth.Bottle},
			NoiseSigma: noise, Clutter: 2,
		})
		var regions int
		allocs := testing.AllocsPerRun(5, func() {
			boxes, _ := ProposeCrops(sc.Image, DetectParams{})
			regions = len(boxes)
		})
		if limit := 6 + 2*regions; allocs > float64(limit) {
			t.Errorf("noise %v: ProposeCrops allocates %.0f times for %d regions, want <= %d", noise, allocs, regions, limit)
		}
		t.Logf("noise %v: %.0f allocs for %d regions", noise, allocs, regions)
	}
}

// FuzzProposeCrops builds a 1-64 x 1-64 RGB scene from the fuzz bytes
// (width, height and mask tolerance from the first three, pixels
// cycling through the rest) and checks proposal against the reference
// path, and the border summaries against FindContours, on whatever
// masks come out: extreme aspect ratios, single pixels, all
// foreground, all background.
func FuzzProposeCrops(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		w, h, tol := 1+int(data[0])%64, 1+int(data[1])%64, 1+int(data[2])%64
		img := imaging.NewImage(w, h)
		if px := data[3:]; len(px) > 0 {
			for i := range img.Pix {
				img.Pix[i] = px[i%len(px)]
			}
		}
		checkProposals(t, img, DetectParams{BgTol: tol})
		checkProposals(t, img, DetectParams{BgTol: tol, MinArea: 1, Pad: 1})

		var s contour.Scratch
		f := foregroundMask(&s, img, tol)
		cs := contour.FindContours(maskOfPlane(f, w, h))
		i := 0
		contour.TraceBorders(f, w, h, func(b contour.Border) {
			if i >= len(cs) {
				t.Fatalf("more borders than the %d contours", len(cs))
			}
			c := &cs[i]
			if b.Hole != c.Hole || math.Float64bits(b.Area) != math.Float64bits(c.Area()) || b.Box != c.BoundingBox() {
				t.Fatalf("border %d: %+v, want hole=%v area=%v box=%+v", i, b, c.Hole, c.Area(), c.BoundingBox())
			}
			i++
		})
		if i != len(cs) {
			t.Fatalf("%d borders, %d contours", i, len(cs))
		}
	})
}
