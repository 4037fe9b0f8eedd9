package contour

import (
	"math"

	"snmatch/internal/geom"
	"snmatch/internal/imaging"
)

// dirs8 enumerates the 8-neighbourhood in clockwise screen order (y grows
// downwards): E, SE, S, SW, W, NW, N, NE.
var dirs8 = [8][2]int{{1, 0}, {1, 1}, {0, 1}, {-1, 1}, {-1, 0}, {-1, -1}, {0, -1}, {1, -1}}

// Labels of the trace plane. Suzuki-Abe writes NBD, the border's
// sequence number, where this tracer writes visited; the tracer only
// asks whether a label is zero, whether it is unvisited and its sign,
// so with hierarchy untracked the four labels trace identically and
// fit an int8.
const (
	background int8 = 0
	unvisited  int8 = 1
	visited    int8 = 2 // -visited: the border's east neighbour is background
)

// Border summarises one traced border without its points: Hole, Area
// and Box equal the Hole, Area() and BoundingBox() of the Contour that
// FindContours returns for the same border, bit for bit.
type Border struct {
	Hole bool
	Area float64
	Box  geom.Rect
}

// Scratch holds the border tracer's reusable working set: the padded
// trace plane and the point/contour spines the traced borders are built
// in. The buffers grow to the largest working set seen and are then
// reused verbatim, so a warm scratch traces without touching the heap —
// the contour-side analogue of the extractor Scratch structs on the
// descriptor path.
//
// A Scratch is single-owner (not safe for concurrent use), and the
// contours returned by FindContoursInto alias its spines: they are valid
// only until the next FindContoursInto call on the same scratch. The
// zero value is ready to use.
type Scratch struct {
	f     []int8        // trace plane with a zero frame, (w+2)*(h+2)
	pts   []geom.PointI // shared point spine; contours are subslices
	offs  []int         // per-contour end offset into pts
	holes []bool        // per-contour hole flag, parallel to offs
	out   []Contour     // materialised result slice handed to the caller
}

// FindContours extracts all borders of the binary image using the border
// following algorithm of Suzuki and Abe (1985). Pixels with value > 0 are
// foreground. Both outer borders and hole borders are returned, in raster
// order of their starting points; hierarchy is not tracked.
func FindContours(bin *imaging.Gray) []Contour {
	var s Scratch
	return FindContoursInto(&s, bin)
}

// FindContoursInto is FindContours drawing every buffer from the
// scratch's persistent spines, for callers that trace in a loop (the
// pooled classify paths). Output is identical to FindContours for every
// input; the returned contours alias the scratch and are valid until its
// next use.
func FindContoursInto(s *Scratch, bin *imaging.Gray) []Contour {
	s.trace(bin, nil)
	// Materialise only after every border is traced: contours are
	// capacity-capped subslices of the point spine, and the spine cannot
	// move once appends stop.
	s.out = s.out[:0]
	start := 0
	for i, end := range s.offs {
		s.out = append(s.out, Contour{Points: s.pts[start:end:end], Hole: s.holes[i]})
		start = end
	}
	return s.out
}

// TraceBorders traces exactly the borders FindContours finds and calls
// visit with each one's summary, in the same order. No point is
// stored, so its working set is the trace plane alone, however many
// borders there are and however long they run.
func TraceBorders(bin *imaging.Gray, visit func(Border)) {
	var s Scratch
	s.trace(bin, visit)
}

// trace runs Suzuki-Abe border following over bin. With a nil visit it
// appends each border's points to s.pts, its end offset to s.offs and
// its hole flag to s.holes; otherwise it folds the points into a Border
// and calls visit with it.
//
// The plane carries a one-pixel background frame, so every neighbour
// read is in bounds without a test, and a neighbour is an index offset.
func (s *Scratch) trace(bin *imaging.Gray, visit func(Border)) {
	w, h := bin.W, bin.H
	stride := w + 2
	n := stride * (h + 2)
	if cap(s.f) < n {
		s.f = make([]int8, n)
	}
	f := s.f[:n]
	clear(f[:stride])
	clear(f[(h+1)*stride:])
	for y := 0; y < h; y++ {
		row := f[(y+1)*stride : (y+2)*stride]
		row[0], row[w+1] = background, background
		for x, v := range bin.Pix[y*w : (y+1)*w] {
			if v > 0 {
				row[x+1] = unvisited
			} else {
				row[x+1] = background
			}
		}
	}
	var step [8]int
	for d, dv := range dirs8 {
		step[d] = dv[1]*stride + dv[0]
	}
	points := visit == nil
	s.pts, s.offs, s.holes = s.pts[:0], s.offs[:0], s.holes[:0]

	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i0 := (y+1)*stride + x + 1
			v := f[i0]
			var startDir int
			var hole bool
			switch {
			case v == unvisited && f[i0-1] == background:
				startDir = 4 // towards the west background pixel
			case v > 0 && f[i0+1] == background:
				startDir, hole = 0, true // towards the east background pixel
			default:
				continue
			}

			// Step 3.1: clockwise search around (x, y) starting from the
			// background pixel's direction for the first nonzero neighbour.
			d1 := -1
			for k := 0; k < 8; k++ {
				d := (startDir + k) & 7
				if f[i0+step[d]] != background {
					d1 = d
					break
				}
			}
			var acc borderAcc
			if d1 < 0 {
				// Isolated single-pixel component.
				f[i0] = -visited
				if points {
					s.pts = append(s.pts, geom.PtI(x, y))
				} else {
					acc.add(x, y)
				}
			} else {
				// Steps 3.2-3.5: follow the border counterclockwise from
				// p3 = p0; d23 is the direction from p3 to p2, starting
				// at p1.
				i1 := i0 + step[d1]
				i3, x3, y3, d23 := i0, x, y, d1
				for {
					eastZero := false
					d4 := d23
					for k := 1; k <= 8; k++ {
						d := (d23 - k) & 7
						if f[i3+step[d]] != background {
							d4 = d
							break
						}
						if d == 0 {
							eastZero = true // east neighbour examined and zero
						}
					}
					// Step 3.4: mark the current pixel.
					if eastZero {
						f[i3] = -visited
					} else if f[i3] == unvisited {
						f[i3] = visited
					}
					if points {
						s.pts = append(s.pts, geom.PtI(x3, y3))
					} else {
						acc.add(x3, y3)
					}
					// Step 3.5: termination when back at the start configuration.
					i4 := i3 + step[d4]
					if i4 == i0 && i3 == i1 {
						break
					}
					i3, x3, y3, d23 = i4, x3+dirs8[d4][0], y3+dirs8[d4][1], (d4+4)&7
				}
			}
			if points {
				s.offs = append(s.offs, len(s.pts))
				s.holes = append(s.holes, hole)
			} else {
				visit(acc.border(hole))
			}
		}
	}
}

// borderAcc folds a border's points, in trace order, into its Border.
type borderAcc struct {
	n      int
	x0, y0 int // first point
	px, py int // latest point
	// sum is the shoelace sum Contour.Area accumulates, over the same
	// terms in the same order. Consecutive points are 8-neighbours, so
	// each term is a point crossed with a unit step and under w+h in
	// magnitude; every product and partial sum of the float64 loop is
	// then an exact integer, which an int64 holds exactly.
	sum int64
	box geom.Rect
}

func (b *borderAcc) add(x, y int) {
	if b.n == 0 {
		b.x0, b.y0 = x, y
		b.box = geom.Rect{MinX: x, MinY: y, MaxX: x + 1, MaxY: y + 1}
	} else {
		b.sum += int64(b.px)*int64(y) - int64(x)*int64(b.py)
		b.box.MinX, b.box.MinY = min(b.box.MinX, x), min(b.box.MinY, y)
		b.box.MaxX, b.box.MaxY = max(b.box.MaxX, x+1), max(b.box.MaxY, y+1)
	}
	b.px, b.py = x, y
	b.n++
}

// border closes the polygon (last point back to the first) and returns
// the summary; like Contour.Area, fewer than 3 points enclose no area.
func (b *borderAcc) border(hole bool) Border {
	area := 0.0
	if b.n >= 3 {
		sum := b.sum + int64(b.px)*int64(b.y0) - int64(b.x0)*int64(b.py)
		area = math.Abs(float64(sum)) / 2
	}
	return Border{Hole: hole, Area: area, Box: b.box}
}

// largestPreferOuter returns Largest(ExternalOnly(cs)) falling back to
// Largest(cs) when no outer border exists, without materialising the
// filtered slice — the allocation-free form of the preprocessing
// cascade's contour selection.
func largestPreferOuter(cs []Contour) *Contour {
	var best *Contour
	bestArea := -1.0
	for i := range cs {
		c := &cs[i]
		if c.Hole {
			continue
		}
		if a := c.Area(); a > bestArea {
			best, bestArea = c, a
		}
	}
	if best != nil {
		return best
	}
	return Largest(cs)
}

// Largest returns the contour with the greatest enclosed area, preferring
// outer borders over holes. It returns nil when the slice is empty.
func Largest(cs []Contour) *Contour {
	var best *Contour
	bestArea := -1.0
	for i := range cs {
		c := &cs[i]
		a := c.Area()
		// Outer borders win ties against holes of equal area.
		better := a > bestArea ||
			(a == bestArea && best != nil && best.Hole && !c.Hole)
		if better {
			best = c
			bestArea = a
		}
	}
	return best
}

// FilterByArea returns the contours whose enclosed area is at least min.
func FilterByArea(cs []Contour, min float64) []Contour {
	var out []Contour
	for _, c := range cs {
		if c.Area() >= min {
			out = append(out, c)
		}
	}
	return out
}

// ExternalOnly returns only the outer (non-hole) borders.
func ExternalOnly(cs []Contour) []Contour {
	var out []Contour
	for _, c := range cs {
		if !c.Hole {
			out = append(out, c)
		}
	}
	return out
}
