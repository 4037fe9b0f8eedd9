package pipeline

import (
	"cmp"
	"slices"

	"snmatch/internal/contour"
	"snmatch/internal/geom"
	"snmatch/internal/imaging"
	"snmatch/internal/parallel"
)

// DetectParams controls the scene detector's region-proposal stage and
// its classification fan-out. The zero value selects defaults tuned for
// the synthetic room scenes (synth.ComposeSceneP).
type DetectParams struct {
	// MinArea is the minimum enclosed contour area for a proposal;
	// smaller blobs (noise speckle, clutter slivers) are dropped.
	// Default 120.
	MinArea float64
	// Pad grows every proposal box by this margin on each side before
	// clamping, so tight silhouette boxes keep the context the
	// classifiers' own preprocessing expects. Default 4.
	Pad int
	// MaxRegions caps the number of proposals after ordering; the
	// serving layer uses it to bound per-request work. Default 32.
	MaxRegions int
	// BgTol is the per-channel half-window absorbed around each dominant
	// background colour mode when building the foreground mask.
	// Default 12.
	BgTol int
	// Workers is the classification pool size; <= 0 selects one worker
	// per CPU. Region proposal is always serial.
	Workers int
}

// withDefaults fills zero fields with the documented defaults.
func (p DetectParams) withDefaults() DetectParams {
	if p.MinArea <= 0 {
		p.MinArea = 120
	}
	if p.Pad <= 0 {
		p.Pad = 4
	}
	if p.MaxRegions <= 0 {
		p.MaxRegions = 32
	}
	if p.BgTol <= 0 {
		p.BgTol = 12
	}
	return p
}

// Detection is one classified scene region: the proposal box in scene
// coordinates plus the per-crop classification outcome.
type Detection struct {
	Box geom.Rect
	Prediction
}

// bgMaxModes bounds the dominant-colour peeling of the foreground
// mask: room scenes have a handful of background surfaces (wall, floor,
// and their clutter-perturbed neighbourhoods), not many.
const bgMaxModes = 4

// bgBinBits quantises each RGB channel to 2^bgBinBits levels for the
// background-mode histogram.
const bgBinBits = 5

// foregroundMask estimates the scene background by peeling dominant
// colour modes from a coarse RGB histogram — peeling stops when the
// next peak holds under 2% of the pixels — and returns a binary plane
// with the remaining (foreground) pixels set. A pixel is background
// when every channel sits within ±tol of some mode's colour. Working in
// colour space rather than luma keeps saturated objects whose
// brightness happens to match the gray room surfaces in the
// foreground; the single-object preprocessing cascade's extreme-polarity
// threshold handles neither that nor multi-level backgrounds.
func foregroundMask(img *imaging.Image, tol int) *imaging.Gray {
	const levels = 1 << bgBinBits
	const shift = 8 - bgBinBits
	// A bin counts at most W*H pixels, so int32 bins suffice at half
	// the size of int ones.
	hist := make([]int32, levels*levels*levels)
	for i := 0; i < len(img.Pix); i += 3 {
		idx := (int(img.Pix[i])>>shift)<<(2*bgBinBits) |
			(int(img.Pix[i+1])>>shift)<<bgBinBits |
			int(img.Pix[i+2])>>shift
		hist[idx]++
	}
	minPeak := (len(img.Pix) / 3) / 50
	var modes [bgMaxModes][3]int
	n := 0
	for n < bgMaxModes {
		best, bestC := -1, int32(0)
		for v, c := range hist {
			if c > bestC {
				best, bestC = v, c
			}
		}
		if best < 0 || int(bestC) < minPeak {
			break
		}
		// Bin centre as the mode colour.
		mode := [3]int{
			(best>>(2*bgBinBits))<<shift | 1<<(shift-1),
			(best>>bgBinBits&(levels-1))<<shift | 1<<(shift-1),
			(best&(levels-1))<<shift | 1<<(shift-1),
		}
		modes[n] = mode
		n++
		// Retire every bin whose centre the mode's window absorbs, so
		// the next peak is a genuinely different surface colour.
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
	// lut[c][v] has bit j set when channel value v lies within ±tol of
	// mode j's channel c, so a pixel is background exactly when the
	// three channels' entries share a bit. Channel distances never
	// exceed 255, so capping tol there leaves the test unchanged.
	var lut [3][256]uint8
	t := min(tol, 255)
	for j, m := range modes[:n] {
		for c := range lut {
			for v := max(m[c]-t, 0); v <= min(m[c]+t, 255); v++ {
				lut[c][v] |= 1 << j
			}
		}
	}
	fg := imaging.NewGray(img.W, img.H)
	for p, i := 0, 0; p < len(fg.Pix); p, i = p+1, i+3 {
		if lut[0][img.Pix[i]]&lut[1][img.Pix[i+1]]&lut[2][img.Pix[i+2]] == 0 {
			fg.Pix[p] = 255
		}
	}
	return fg
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ProposeRegions runs contour-based region proposal on a scene image:
// foreground masking by background-mode peeling, Suzuki-Abe border
// tracing, area filtering of the outer borders, padded bounding boxes
// with nested boxes suppressed, ordered top-to-bottom then
// left-to-right and capped at MaxRegions. The ordering is a pure
// function of the image, so proposals are deterministic.
func ProposeRegions(img *imaging.Image, p DetectParams) []geom.Rect {
	p = p.withDefaults()
	return proposeFrom(img, foregroundMask(img, p.BgTol), p)
}

// proposeFrom is the proposal body over an already-computed foreground
// mask, shared by ProposeRegions and ProposeCrops. It needs each
// border's hole flag, area and box only, so it traces summaries and
// stores no border points.
func proposeFrom(img *imaging.Image, fg *imaging.Gray, p DetectParams) []geom.Rect {
	var boxes []geom.Rect
	contour.TraceBorders(fg, func(b contour.Border) {
		if b.Hole || b.Area < p.MinArea {
			return
		}
		if box := b.Box.Inset(-p.Pad).ClampTo(img.W, img.H); !box.Empty() {
			boxes = append(boxes, box)
		}
	})
	// Suppress boxes fully contained in another proposal (fragments of a
	// larger object's border); among equal boxes the first survives.
	kept := boxes[:0]
	for i, b := range boxes {
		contained := false
		for j, o := range boxes {
			if i == j {
				continue
			}
			inside := o.Intersect(b) == b
			if inside && (o != b || j < i) {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, b)
		}
	}
	// Kept boxes are distinct, so the order is total and any sort
	// returns the same sequence.
	slices.SortFunc(kept, func(a, b geom.Rect) int {
		return cmp.Or(cmp.Compare(a.MinY, b.MinY), cmp.Compare(a.MinX, b.MinX),
			cmp.Compare(a.MaxY, b.MaxY), cmp.Compare(a.MaxX, b.MaxX))
	})
	if len(kept) > p.MaxRegions {
		kept = kept[:p.MaxRegions]
	}
	return kept
}

// ProposeCrops returns the proposal regions together with their
// NYU-style masked crops: background pixels inside each box are
// blackened, so a crop looks exactly like the segmented region masks
// the single-object pipelines were built for. The serving layer fans
// these crops out over its worker slots; Detect classifies them
// in-process.
func ProposeCrops(img *imaging.Image, p DetectParams) ([]geom.Rect, []*imaging.Image) {
	p = p.withDefaults()
	fg := foregroundMask(img, p.BgTol)
	regions := proposeFrom(img, fg, p)
	crops := make([]*imaging.Image, len(regions))
	for i, b := range regions {
		crop := img.Crop(b)
		for y := 0; y < crop.H; y++ {
			for x := 0; x < crop.W; x++ {
				if fg.Pix[(b.MinY+y)*fg.W+(b.MinX+x)] == 0 {
					q := (y*crop.W + x) * 3
					crop.Pix[q], crop.Pix[q+1], crop.Pix[q+2] = 0, 0, 0
				}
			}
		}
		crops[i] = crop
	}
	return regions, crops
}

// Detect runs the scene-level detect-then-classify loop: region
// proposal (serial), then per-crop classification fanned out over the
// worker pool. Stateless pipelines classify each crop independently, so
// the output is bit-identical at every worker count; pipelines with
// mutable state (Forker implementations) consume their stream in region
// order on a serial fallback, which keeps them deterministic too.
func Detect(img *imaging.Image, pl Pipeline, g *Gallery, p DetectParams) []Detection {
	regions, crops := ProposeCrops(img, p)
	dets := make([]Detection, len(regions))
	for i, b := range regions {
		dets[i].Box = b
	}
	if len(dets) == 0 {
		return dets
	}
	if prep, ok := pl.(Preparer); ok {
		prep.Prepare(g, p.Workers)
	}
	if _, stateful := pl.(Forker); stateful {
		for i := range dets {
			dets[i].Prediction = pl.Classify(crops[i], g)
		}
		return dets
	}
	parallel.ForEach(p.Workers, len(dets), func(i int) {
		dets[i].Prediction = pl.Classify(crops[i], g)
	})
	return dets
}
