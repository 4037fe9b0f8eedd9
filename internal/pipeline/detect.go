package pipeline

import (
	"bytes"
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
// next peak holds under 2% of the pixels — and writes the binary mask
// into s's trace plane, which it returns: 1 for the remaining
// (foreground) pixels, 0 for background. A pixel is background when
// every channel sits within ±tol of some mode's colour. Working in
// colour space rather than luma keeps saturated objects whose
// brightness happens to match the gray room surfaces in the
// foreground; the single-object preprocessing cascade's extreme-polarity
// threshold handles neither that nor multi-level backgrounds.
//
// The argmax and retire passes walk only the occupied bins, which the
// count lists; an argmax tie goes to the lowest bin, as in a scan of
// every bin.
func foregroundMask(s *contour.Scratch, img *imaging.Image, tol int) []int8 {
	const levels = 1 << bgBinBits
	const shift = 8 - bgBinBits
	hist, occ, same := countBins(img)
	minPeak := (len(img.Pix) / 3) / 50
	var modes [bgMaxModes][3]int
	n := 0
	for n < bgMaxModes {
		best, bestC := -1, int32(0)
		for _, v := range occ {
			if cnt := hist[v]; cnt > bestC || cnt == bestC && int(v) < best {
				best, bestC = int(v), cnt
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
		// the next peak is a genuinely different surface colour; the
		// rest stay occupied.
		kept := occ[:0]
		for _, v := range occ {
			cr := int(v>>(2*bgBinBits))<<shift | 1<<(shift-1)
			cg := int(v>>bgBinBits&(levels-1))<<shift | 1<<(shift-1)
			cb := int(v&(levels-1))<<shift | 1<<(shift-1)
			if absInt(cr-mode[0]) <= tol && absInt(cg-mode[1]) <= tol && absInt(cb-mode[2]) <= tol {
				hist[v] = 0
			} else {
				kept = append(kept, v)
			}
		}
		occ = kept
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
	f := s.Plane(img.W, img.H)
	maskRows(f, img, same, &lut)
	return f
}

// countBins returns img's background-mode histogram, the list of its
// occupied bins, and which rows repeat the row above, as most rows of
// a clean scene do. A run of equal rows is counted once, each of its
// pixels weighted by the run's length, and a run of one bin along a
// row counts in a register.
func countBins(img *imaging.Image) (hist []int32, occ []uint16, same []bool) {
	const shift = 8 - bgBinBits
	// A bin counts at most W*H pixels, so int32 bins suffice at half
	// the size of int ones.
	hist = make([]int32, 1<<(3*bgBinBits))
	// Room for the occupied bins of snbench's noisiest scene (1,512); a
	// clean scene occupies a few dozen.
	occ = make([]uint16, 0, 2048)
	same = make([]bool, img.H)
	pix, stride := img.Pix, 3*img.W
	for y := 0; y < img.H; {
		row := pix[y*stride:][:stride]
		k := 1
		for y+k < img.H && bytes.Equal(pix[(y+k)*stride:][:stride], row) {
			same[y+k] = true
			k++
		}
		bin, run := 0, int32(0)
		for i := 0; i+3 <= len(row); i += 3 {
			p := row[i : i+3 : i+3]
			b := int(p[0]>>shift)<<(2*bgBinBits) | int(p[1]>>shift)<<bgBinBits | int(p[2]>>shift)
			if b == bin {
				run++
				continue
			}
			occ = countRun(hist, occ, bin, run*int32(k))
			bin, run = b, 1
		}
		occ = countRun(hist, occ, bin, run*int32(k))
		y += k
	}
	return hist, occ, same
}

// countRun adds a run of n pixels to bin, listing the bin as occupied
// on its first count.
func countRun(hist []int32, occ []uint16, bin int, n int32) []uint16 {
	if n == 0 {
		return occ
	}
	if hist[bin] == 0 {
		occ = append(occ, uint16(bin))
	}
	hist[bin] += n
	return occ
}

// maskRows writes img's foreground mask into the interior of the trace
// plane f: 1 where the pixel's three lookup entries share no mode bit,
// 0 where they do. A row that repeats the row above (same) repeats its
// cells.
func maskRows(f []int8, img *imaging.Image, same []bool, lut *[3][256]uint8) {
	pix, stride := img.Pix, img.W+2
	for y := 0; y < img.H; y++ {
		row := f[(y+1)*stride+1:][:img.W]
		if same[y] {
			copy(row, f[y*stride+1:])
			continue
		}
		px := pix[3*img.W*y:][:3*img.W]
		for x := range row {
			p := px[3*x : 3*x+3 : 3*x+3]
			// m-1 wraps to all ones exactly when m is 0.
			m := lut[0][p[0]] & lut[1][p[1]] & lut[2][p[2]]
			row[x] = int8((uint32(m) - 1) >> 31)
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// proposeFrom is the proposal body over the filled trace plane f:
// Suzuki-Abe border tracing, area filtering of the outer borders,
// padded bounding boxes with nested boxes suppressed, ordered
// top-to-bottom then left-to-right and capped at MaxRegions. It needs
// each border's hole flag, area and box only, so it traces summaries
// and stores no border points. The ordering is a pure function of the
// image, so proposals are deterministic.
func proposeFrom(img *imaging.Image, f []int8, p DetectParams) []geom.Rect {
	boxes := make([]geom.Rect, 0, 16)
	contour.TraceBorders(f, img.W, img.H, func(b contour.Border) {
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

// ProposeCrops runs contour-based region proposal on a scene image —
// foreground masking by background-mode peeling, then proposeFrom —
// and returns the regions together with their NYU-style masked crops:
// background pixels inside each box are blackened, so a crop looks
// exactly like the segmented region masks the single-object pipelines
// were built for. The serving layer fans these crops out over its
// worker slots; Detect classifies them in-process.
//
// Its working set (histogram, trace plane) is allocated per call, not
// pooled: pooled, it stays live between requests, and the garbage
// collector's heap goal doubles what stays live.
func ProposeCrops(img *imaging.Image, p DetectParams) ([]geom.Rect, []*imaging.Image) {
	p = p.withDefaults()
	var s contour.Scratch
	f := foregroundMask(&s, img, p.BgTol)
	regions := proposeFrom(img, f, p)
	crops := make([]*imaging.Image, len(regions))
	stride := img.W + 2
	for i, b := range regions {
		crop := img.Crop(b)
		for y := 0; y < crop.H; y++ {
			// Tracing leaves background cells of the plane at zero.
			for x, v := range f[(b.MinY+y+1)*stride+b.MinX+1:][:crop.W] {
				if v == 0 {
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
