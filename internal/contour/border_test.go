package contour

import (
	"math"
	"testing"

	"snmatch/internal/geom"
	"snmatch/internal/imaging"
	"snmatch/internal/rng"
)

// findContoursRef is the straightforward Suzuki-Abe tracer the padded
// int8 tracer replaced, kept as its reference: an unpadded int32 plane
// holding NBD labels, a bounds-checked neighbour read and a direction
// recovered from the two points of each step.
func findContoursRef(bin *imaging.Gray) []Contour {
	w, h := bin.W, bin.H
	f := make([]int32, w*h)
	for i, v := range bin.Pix {
		if v > 0 {
			f[i] = 1
		}
	}
	at := func(x, y int) int32 {
		if x < 0 || x >= w || y < 0 || y >= h {
			return 0
		}
		return f[y*w+x]
	}
	dirIndex := func(a, b geom.PointI) int {
		for i, d := range dirs8 {
			if d[0] == b.X-a.X && d[1] == b.Y-a.Y {
				return i
			}
		}
		panic("non-adjacent points")
	}
	var out []Contour
	nbd := int32(1)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := f[y*w+x]
			var startDir int
			var hole bool
			switch {
			case v == 1 && at(x-1, y) == 0:
				startDir = 4
			case v >= 1 && at(x+1, y) == 0:
				startDir, hole = 0, true
			default:
				continue
			}
			nbd++
			d1 := -1
			for k := 0; k < 8; k++ {
				d := (startDir + k) % 8
				if at(x+dirs8[d][0], y+dirs8[d][1]) != 0 {
					d1 = d
					break
				}
			}
			p0 := geom.PtI(x, y)
			if d1 < 0 {
				f[y*w+x] = -nbd
				out = append(out, Contour{Points: []geom.PointI{p0}, Hole: hole})
				continue
			}
			p1 := geom.PtI(x+dirs8[d1][0], y+dirs8[d1][1])
			var pts []geom.PointI
			p2, p3 := p1, p0
			for {
				d23 := dirIndex(p3, p2)
				eastZero := false
				var p4 geom.PointI
				for k := 1; k <= 8; k++ {
					d := (d23 - k + 16) % 8
					nx, ny := p3.X+dirs8[d][0], p3.Y+dirs8[d][1]
					if at(nx, ny) != 0 {
						p4 = geom.PtI(nx, ny)
						break
					}
					if d == 0 {
						eastZero = true
					}
				}
				idx := p3.Y*w + p3.X
				if eastZero {
					f[idx] = -nbd
				} else if f[idx] == 1 {
					f[idx] = nbd
				}
				pts = append(pts, p3)
				if p4 == p0 && p3 == p1 {
					break
				}
				p2, p3 = p3, p4
			}
			out = append(out, Contour{Points: pts, Hole: hole})
		}
	}
	return out
}

// tracerPlanes returns binary planes from 1x1 to 48x48: 1xN and Nx1
// strips, all-off, all-on, checkerboards (every pixel a border pixel,
// diagonal 8-connectivity throughout) and random fills at low, medium
// and high density (nested holes, isolated pixels, frame-touching
// components).
func tracerPlanes(r *rng.RNG) []*imaging.Gray {
	var planes []*imaging.Gray
	plane := func(w, h int, on func(x, y int) bool) {
		g := imaging.NewGray(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if on(x, y) {
					g.Pix[y*w+x] = uint8(1 + r.Intn(255))
				}
			}
		}
		planes = append(planes, g)
	}
	sizes := [][2]int{{1, 1}, {1, 2}, {2, 1}, {1, 48}, {48, 1}, {2, 2}, {3, 3}, {48, 48}}
	for k := 0; k < 60; k++ {
		w, h := r.IntRange(1, 48), r.IntRange(1, 48)
		if k%10 == 0 {
			w = 1
		} else if k%10 == 1 {
			h = 1
		}
		sizes = append(sizes, [2]int{w, h})
	}
	for _, sz := range sizes {
		w, h := sz[0], sz[1]
		plane(w, h, func(x, y int) bool { return false })
		plane(w, h, func(x, y int) bool { return true })
		plane(w, h, func(x, y int) bool { return (x+y)%2 == 0 })
		plane(w, h, func(x, y int) bool { return (x+y)%2 == 1 })
		for _, p := range []float64{0.1, 0.5, 0.9} {
			plane(w, h, func(x, y int) bool { return r.Bool(p) })
		}
	}
	for k := 0; k < 40; k++ {
		planes = append(planes, randomBinary(r, r.IntRange(5, 48), r.IntRange(5, 48)))
	}
	return planes
}

func sameContours(t *testing.T, label string, want, got []Contour) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d contours, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Hole != got[i].Hole || len(want[i].Points) != len(got[i].Points) {
			t.Fatalf("%s: contour %d is hole=%v with %d points, want hole=%v with %d",
				label, i, got[i].Hole, len(got[i].Points), want[i].Hole, len(want[i].Points))
		}
		for j := range want[i].Points {
			if want[i].Points[j] != got[i].Points[j] {
				t.Fatalf("%s: contour %d point %d = %v, want %v", label, i, j, got[i].Points[j], want[i].Points[j])
			}
		}
	}
}

// TestTracerMatchesReference requires the padded int8 tracer to return
// the reference tracer's contours point for point, fresh and on one
// scratch reused across every plane shape (so stale labels in a reused
// plane, frame included, would show).
func TestTracerMatchesReference(t *testing.T) {
	r := rng.New(231)
	var s Scratch
	for k, bin := range tracerPlanes(r) {
		want := findContoursRef(bin)
		sameContours(t, "fresh", want, FindContours(bin))
		sameContours(t, "scratch", want, FindContoursInto(&s, bin))
		if t.Failed() {
			t.Fatalf("plane %d (%dx%d)", k, bin.W, bin.H)
		}
	}
}

// TestBorderSummariesMatchContours requires TraceBorders' summaries to
// equal FindContours' Hole, Area() (bit for bit) and BoundingBox(),
// border by border, on one scratch plane reused across every shape.
func TestBorderSummariesMatchContours(t *testing.T) {
	r := rng.New(232)
	var s Scratch
	for k, bin := range tracerPlanes(r) {
		cs := FindContours(bin)
		var bs []Border
		TraceBorders(s.fill(bin), bin.W, bin.H, func(b Border) { bs = append(bs, b) })
		if len(bs) != len(cs) {
			t.Fatalf("plane %d (%dx%d): %d borders, %d contours", k, bin.W, bin.H, len(bs), len(cs))
		}
		for i := range cs {
			c, b := &cs[i], bs[i]
			if b.Hole != c.Hole || math.Float64bits(b.Area) != math.Float64bits(c.Area()) || b.Box != c.BoundingBox() {
				t.Fatalf("plane %d (%dx%d) border %d: %+v, want hole=%v area=%v box=%+v",
					k, bin.W, bin.H, i, b, c.Hole, c.Area(), c.BoundingBox())
			}
		}
	}
}
