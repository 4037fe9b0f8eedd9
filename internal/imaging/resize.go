package imaging

import (
	"fmt"

	"snmatch/internal/arena"
)

// ResizeNearest scales m to w x h with nearest-neighbour sampling.
func (m *Image) ResizeNearest(w, h int) *Image {
	checkSize(w, h)
	out := NewImage(w, h)
	xr := float64(m.W) / float64(w)
	yr := float64(m.H) / float64(h)
	for y := 0; y < h; y++ {
		sy := int((float64(y) + 0.5) * yr)
		if sy >= m.H {
			sy = m.H - 1
		}
		for x := 0; x < w; x++ {
			sx := int((float64(x) + 0.5) * xr)
			if sx >= m.W {
				sx = m.W - 1
			}
			out.Set(x, y, m.At(sx, sy))
		}
	}
	return out
}

// ResizeBilinear scales m to w x h with bilinear interpolation using
// pixel-centre alignment.
func (m *Image) ResizeBilinear(w, h int) *Image {
	checkSize(w, h)
	out := NewImage(w, h)
	xr := float64(m.W) / float64(w)
	yr := float64(m.H) / float64(h)
	for y := 0; y < h; y++ {
		fy := (float64(y)+0.5)*yr - 0.5
		y0 := floorInt(fy)
		wy := fy - float64(y0)
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*xr - 0.5
			x0 := floorInt(fx)
			wx := fx - float64(x0)
			c00 := m.AtClamped(x0, y0)
			c10 := m.AtClamped(x0+1, y0)
			c01 := m.AtClamped(x0, y0+1)
			c11 := m.AtClamped(x0+1, y0+1)
			top := c00.Mix(c10, wx)
			bot := c01.Mix(c11, wx)
			out.Set(x, y, top.Mix(bot, wy))
		}
	}
	return out
}

// ResizeNearest scales g to w x h with nearest-neighbour sampling.
func (g *Gray) ResizeNearest(w, h int) *Gray {
	checkSize(w, h)
	out := NewGray(w, h)
	xr := float64(g.W) / float64(w)
	yr := float64(g.H) / float64(h)
	for y := 0; y < h; y++ {
		sy := int((float64(y) + 0.5) * yr)
		if sy >= g.H {
			sy = g.H - 1
		}
		for x := 0; x < w; x++ {
			sx := int((float64(x) + 0.5) * xr)
			if sx >= g.W {
				sx = g.W - 1
			}
			out.Set(x, y, g.At(sx, sy))
		}
	}
	return out
}

// ResizeBilinear scales g to w x h with bilinear interpolation.
func (g *Gray) ResizeBilinear(w, h int) *Gray { return g.ResizeBilinearIn(nil, w, h) }

// ResizeBilinearIn is ResizeBilinear with the result drawn from the
// arena.
func (g *Gray) ResizeBilinearIn(a *arena.Arena, w, h int) *Gray {
	checkSize(w, h)
	out := NewGrayIn(a, w, h)
	xr := float64(g.W) / float64(w)
	yr := float64(g.H) / float64(h)
	for y := 0; y < h; y++ {
		fy := (float64(y)+0.5)*yr - 0.5
		y0 := floorInt(fy)
		wy := fy - float64(y0)
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*xr - 0.5
			x0 := floorInt(fx)
			wx := fx - float64(x0)
			v00 := float64(g.AtClamped(x0, y0))
			v10 := float64(g.AtClamped(x0+1, y0))
			v01 := float64(g.AtClamped(x0, y0+1))
			v11 := float64(g.AtClamped(x0+1, y0+1))
			top := v00 + (v10-v00)*wx
			bot := v01 + (v11-v01)*wx
			out.Set(x, y, clamp8(top+(bot-top)*wy))
		}
	}
	return out
}

// ResizeBilinear scales f to w x h with bilinear interpolation.
func (f *FloatGray) ResizeBilinear(w, h int) *FloatGray { return f.ResizeBilinearIn(nil, w, h) }

// ResizeBilinearIn is ResizeBilinear with the result drawn from the
// arena. Each output column's clamped source columns and weight are
// computed once per call, each output row's source rows and weight
// once per row.
func (f *FloatGray) ResizeBilinearIn(a *arena.Arena, w, h int) *FloatGray {
	checkSize(w, h)
	out := NewFloatGrayIn(a, w, h)
	xr := float64(f.W) / float64(w)
	yr := float64(f.H) / float64(h)
	cols := arena.Slice[int](a, 2*w) // x0 and x0+1 of column x at 2x and 2x+1, clamped
	wxs := arena.Slice[float32](a, w)
	for x := range wxs {
		fx := (float64(x)+0.5)*xr - 0.5
		x0 := floorInt(fx)
		wxs[x] = float32(fx - float64(x0))
		cols[2*x], cols[2*x+1] = clampIndex(x0, f.W), clampIndex(x0+1, f.W)
	}
	for y := 0; y < h; y++ {
		fy := (float64(y)+0.5)*yr - 0.5
		y0 := floorInt(fy)
		wy := float32(fy - float64(y0))
		r0 := f.Pix[clampIndex(y0, f.H)*f.W:][:f.W]
		r1 := f.Pix[clampIndex(y0+1, f.H)*f.W:][:f.W]
		dst := out.Pix[y*w : (y+1)*w]
		for x, wx := range wxs {
			c0, c1 := cols[2*x], cols[2*x+1]
			top := r0[c0] + (r0[c1]-r0[c0])*wx
			bot := r1[c0] + (r1[c1]-r1[c0])*wx
			dst[x] = top + (bot-top)*wy
		}
	}
	return out
}

// clampIndex clamps i to [0, n), replicating the border as AtClamped
// does.
func clampIndex(i, n int) int { return min(max(i, 0), n-1) }

// Downsample2 halves f in each dimension by dropping odd rows/columns, as
// used between SIFT octaves. Images of odd size round down (minimum 1).
func (f *FloatGray) Downsample2() *FloatGray { return f.Downsample2In(nil) }

// Downsample2In is Downsample2 with the result drawn from the arena.
func (f *FloatGray) Downsample2In(a *arena.Arena) *FloatGray {
	w, h := f.W/2, f.H/2
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	out := NewFloatGrayIn(a, w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Set(x, y, f.AtClamped(2*x, 2*y))
		}
	}
	return out
}

func checkSize(w, h int) {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid resize target %dx%d", w, h))
	}
}

func floorInt(v float64) int {
	i := int(v)
	if v < 0 && float64(i) != v {
		i--
	}
	return i
}
