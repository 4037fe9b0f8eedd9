// Package imaging provides the raster substrate for the recognition
// pipelines: dense 8-bit RGB and grayscale images, geometric transforms,
// separable filtering, integral images and simple vector drawing. It is a
// from-scratch, stdlib-only replacement for the small subset of OpenCV that
// the paper's pipelines rely on.
package imaging

import (
	"fmt"
	"image"
	"image/color"

	"snmatch/internal/arena"
	"snmatch/internal/geom"
)

// RGB is a packed 8-bit colour.
type RGB struct {
	R, G, B uint8
}

// C constructs an RGB colour.
func C(r, g, b uint8) RGB { return RGB{r, g, b} }

// Luma returns the BT.601 luma of c as a value in [0, 255].
func (c RGB) Luma() uint8 {
	// Fixed point: (299 R + 587 G + 114 B) / 1000, rounded.
	return uint8((299*uint32(c.R) + 587*uint32(c.G) + 114*uint32(c.B) + 500) / 1000)
}

// Scale multiplies each channel by k, clamping to [0, 255].
func (c RGB) Scale(k float64) RGB {
	return RGB{clamp8(float64(c.R) * k), clamp8(float64(c.G) * k), clamp8(float64(c.B) * k)}
}

// Mix linearly interpolates between c and d: t=0 gives c, t=1 gives d.
func (c RGB) Mix(d RGB, t float64) RGB {
	return RGB{
		clamp8(float64(c.R) + (float64(d.R)-float64(c.R))*t),
		clamp8(float64(c.G) + (float64(d.G)-float64(c.G))*t),
		clamp8(float64(c.B) + (float64(d.B)-float64(c.B))*t),
	}
}

func clamp8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// Common colours used by tests and the synthetic renderer.
var (
	Black = RGB{0, 0, 0}
	White = RGB{255, 255, 255}
)

// Image is an interleaved 8-bit RGB raster.
type Image struct {
	W, H int
	Pix  []uint8 // len == 3*W*H, row-major, R G B per pixel
}

// NewImage returns a black W x H image. It panics on non-positive sizes.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]uint8, 3*w*h)}
}

// NewImageFilled returns a W x H image filled with c.
func NewImageFilled(w, h int, c RGB) *Image {
	img := NewImage(w, h)
	img.Fill(c)
	return img
}

// NewImageIn is NewImage with the header and pixel buffer drawn from
// the arena (nil falls back to the heap). Arena-backed images are zeroed
// exactly like heap ones, and are reclaimed by the arena's Reset.
func NewImageIn(a *arena.Arena, w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid image size %dx%d", w, h))
	}
	m := arena.NewOf[Image](a)
	m.W, m.H = w, h
	m.Pix = arena.Slice[uint8](a, 3*w*h)
	return m
}

// Fill sets every pixel of m to c.
func (m *Image) Fill(c RGB) {
	for i := 0; i < len(m.Pix); i += 3 {
		m.Pix[i], m.Pix[i+1], m.Pix[i+2] = c.R, c.G, c.B
	}
}

// Bounds returns the image rectangle.
func (m *Image) Bounds() geom.Rect { return geom.Rect{MinX: 0, MinY: 0, MaxX: m.W, MaxY: m.H} }

// In reports whether (x, y) is a valid pixel coordinate.
func (m *Image) In(x, y int) bool { return x >= 0 && x < m.W && y >= 0 && y < m.H }

// At returns the pixel at (x, y). It panics when out of bounds.
func (m *Image) At(x, y int) RGB {
	i := (y*m.W + x) * 3
	return RGB{m.Pix[i], m.Pix[i+1], m.Pix[i+2]}
}

// AtClamped returns the pixel at (x, y) with coordinates clamped to the
// image border (replicate padding).
func (m *Image) AtClamped(x, y int) RGB {
	if x < 0 {
		x = 0
	} else if x >= m.W {
		x = m.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= m.H {
		y = m.H - 1
	}
	return m.At(x, y)
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (m *Image) Set(x, y int, c RGB) {
	if !m.In(x, y) {
		return
	}
	i := (y*m.W + x) * 3
	m.Pix[i], m.Pix[i+1], m.Pix[i+2] = c.R, c.G, c.B
}

// Clone returns a deep copy of m.
func (m *Image) Clone() *Image { return m.CloneIn(nil) }

// CloneIn is Clone with the copy drawn from the arena (nil falls back
// to the heap).
func (m *Image) CloneIn(a *arena.Arena) *Image {
	out := NewImageIn(a, m.W, m.H)
	copy(out.Pix, m.Pix)
	return out
}

// Crop returns a copy of the sub-image covered by r (clamped to bounds).
// It returns nil when the clamped rectangle is empty.
func (m *Image) Crop(r geom.Rect) *Image { return m.CropIn(nil, r) }

// CropIn is Crop with the sub-image drawn from the arena (nil falls
// back to the heap).
func (m *Image) CropIn(a *arena.Arena, r geom.Rect) *Image {
	r = r.ClampTo(m.W, m.H)
	if r.Empty() {
		return nil
	}
	out := NewImageIn(a, r.W(), r.H())
	for y := 0; y < out.H; y++ {
		src := ((r.MinY+y)*m.W + r.MinX) * 3
		dst := y * out.W * 3
		copy(out.Pix[dst:dst+out.W*3], m.Pix[src:src+out.W*3])
	}
	return out
}

// ToGray converts m to an 8-bit luma image.
func (m *Image) ToGray() *Gray { return m.ToGrayIn(nil) }

// ToGrayIn is ToGray with the result drawn from the arena (nil falls
// back to the heap).
func (m *Image) ToGrayIn(a *arena.Arena) *Gray {
	g := NewGrayIn(a, m.W, m.H)
	for p, i := 0, 0; p < len(g.Pix); p, i = p+1, i+3 {
		g.Pix[p] = RGB{m.Pix[i], m.Pix[i+1], m.Pix[i+2]}.Luma()
	}
	return g
}

// Gray is an 8-bit single channel raster.
type Gray struct {
	W, H int
	Pix  []uint8 // len == W*H, row-major
}

// NewGray returns a zeroed W x H grayscale image.
func NewGray(w, h int) *Gray { return NewGrayIn(nil, w, h) }

// NewGrayIn is NewGray with the header and pixel buffer drawn from the
// arena (nil falls back to the heap). Arena-backed rasters are zeroed
// exactly like heap ones, and are reclaimed by the arena's Reset.
func NewGrayIn(a *arena.Arena, w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid image size %dx%d", w, h))
	}
	g := arena.NewOf[Gray](a)
	g.W, g.H = w, h
	g.Pix = arena.Slice[uint8](a, w*h)
	return g
}

// In reports whether (x, y) is a valid pixel coordinate.
func (g *Gray) In(x, y int) bool { return x >= 0 && x < g.W && y >= 0 && y < g.H }

// At returns the pixel at (x, y). It panics when out of bounds.
func (g *Gray) At(x, y int) uint8 { return g.Pix[y*g.W+x] }

// AtClamped returns the pixel at (x, y) with replicate border padding.
func (g *Gray) AtClamped(x, y int) uint8 {
	if x < 0 {
		x = 0
	} else if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= g.H {
		y = g.H - 1
	}
	return g.Pix[y*g.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (g *Gray) Set(x, y int, v uint8) {
	if !g.In(x, y) {
		return
	}
	g.Pix[y*g.W+x] = v
}

// Clone returns a deep copy of g.
func (g *Gray) Clone() *Gray {
	out := NewGray(g.W, g.H)
	copy(out.Pix, g.Pix)
	return out
}

// Crop returns a copy of the sub-image covered by r (clamped to bounds),
// or nil when the clamped rectangle is empty.
func (g *Gray) Crop(r geom.Rect) *Gray { return g.CropIn(nil, r) }

// CropIn is Crop with the sub-image drawn from the arena (nil falls
// back to the heap).
func (g *Gray) CropIn(a *arena.Arena, r geom.Rect) *Gray {
	r = r.ClampTo(g.W, g.H)
	if r.Empty() {
		return nil
	}
	out := NewGrayIn(a, r.W(), r.H())
	for y := 0; y < out.H; y++ {
		src := (r.MinY+y)*g.W + r.MinX
		copy(out.Pix[y*out.W:(y+1)*out.W], g.Pix[src:src+out.W])
	}
	return out
}

// ToImage expands g to an RGB image with equal channels.
func (g *Gray) ToImage() *Image {
	m := NewImage(g.W, g.H)
	for p, i := 0, 0; p < len(g.Pix); p, i = p+1, i+3 {
		v := g.Pix[p]
		m.Pix[i], m.Pix[i+1], m.Pix[i+2] = v, v, v
	}
	return m
}

// ToFloat converts g to a float32 raster in [0, 255].
func (g *Gray) ToFloat() *FloatGray { return g.ToFloatIn(nil) }

// ToFloatIn is ToFloat with the result drawn from the arena.
func (g *Gray) ToFloatIn(a *arena.Arena) *FloatGray {
	f := NewFloatGrayIn(a, g.W, g.H)
	for i, v := range g.Pix {
		f.Pix[i] = float32(v)
	}
	return f
}

// FloatGray is a float32 single channel raster used by the scale-space
// feature detectors where 8-bit precision is insufficient.
type FloatGray struct {
	W, H int
	Pix  []float32
}

// NewFloatGray returns a zeroed W x H float raster.
func NewFloatGray(w, h int) *FloatGray { return NewFloatGrayIn(nil, w, h) }

// NewFloatGrayIn is NewFloatGray with the header and pixel buffer drawn
// from the arena (nil falls back to the heap).
func NewFloatGrayIn(a *arena.Arena, w, h int) *FloatGray {
	f := newFloatGrayHeaderIn(a, w, h)
	f.Pix = arena.Slice[float32](a, w*h)
	return f
}

// newFloatGrayHeaderIn returns a w x h header drawn from the arena,
// without a pixel buffer.
func newFloatGrayHeaderIn(a *arena.Arena, w, h int) *FloatGray {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid image size %dx%d", w, h))
	}
	f := arena.NewOf[FloatGray](a)
	f.W, f.H = w, h
	return f
}

// At returns the value at (x, y). It panics when out of bounds.
func (f *FloatGray) At(x, y int) float32 { return f.Pix[y*f.W+x] }

// AtClamped returns the value at (x, y) with replicate border padding.
func (f *FloatGray) AtClamped(x, y int) float32 {
	if x < 0 {
		x = 0
	} else if x >= f.W {
		x = f.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= f.H {
		y = f.H - 1
	}
	return f.Pix[y*f.W+x]
}

// Set writes the value at (x, y); out-of-bounds writes are ignored.
func (f *FloatGray) Set(x, y int, v float32) {
	if x < 0 || x >= f.W || y < 0 || y >= f.H {
		return
	}
	f.Pix[y*f.W+x] = v
}

// Clone returns a deep copy of f.
func (f *FloatGray) Clone() *FloatGray {
	out := NewFloatGray(f.W, f.H)
	copy(out.Pix, f.Pix)
	return out
}

// ToGray clamps and rounds f back to an 8-bit image.
func (f *FloatGray) ToGray() *Gray { return f.ToGrayIn(nil) }

// ToGrayIn is ToGray with the result drawn from the arena.
func (f *FloatGray) ToGrayIn(a *arena.Arena) *Gray {
	g := NewGrayIn(a, f.W, f.H)
	for i, v := range f.Pix {
		g.Pix[i] = clamp8(float64(v))
	}
	return g
}

// FromStdImage converts any image.Image into an Image: each channel of
// pixel (x, y) is the high byte of that channel of
// src.At(Min.X+x, Min.Y+y).RGBA(), alpha dropped.
//
// An *image.RGBA, what png.Decode returns for the opaque 8-bit
// truecolor PNGs that ToStdImage encodes, is read row by row from its
// Pix buffer: its RGBA method widens each byte, so the high byte is the
// stored R, G or B. Every other type takes the per-pixel At loop.
//
// The server decodes those PNGs with DecodePNG instead, but snbench's
// oracle and its traced replay still decode with png.Decode and this
// function; without the RGBA branch the replay's imaging.decode_ms
// would slow down while serving sped up.
func FromStdImage(src image.Image) *Image {
	b := src.Bounds()
	out := NewImage(b.Dx(), b.Dy())
	if s, ok := src.(*image.RGBA); ok {
		w := out.W
		for y := 0; y < out.H; y++ {
			row, dst := s.Pix[s.PixOffset(b.Min.X, b.Min.Y+y):][:4*w], out.Pix[3*w*y:][:3*w]
			for x, i := 0, 0; x < len(dst); x, i = x+3, i+4 {
				dst[x], dst[x+1], dst[x+2] = row[i], row[i+1], row[i+2]
			}
		}
		return out
	}
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			r, g, bl, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			out.Set(x, y, RGB{uint8(r >> 8), uint8(g >> 8), uint8(bl >> 8)})
		}
	}
	return out
}

// ToStdImage converts m into an *image.RGBA for use with the standard
// library encoders.
func (m *Image) ToStdImage() *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, m.W, m.H))
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			c := m.At(x, y)
			out.SetRGBA(x, y, color.RGBA{c.R, c.G, c.B, 255})
		}
	}
	return out
}

// MeanRGB returns the per-channel mean of the image.
func (m *Image) MeanRGB() (r, g, b float64) {
	n := float64(m.W * m.H)
	var sr, sg, sb uint64
	for i := 0; i < len(m.Pix); i += 3 {
		sr += uint64(m.Pix[i])
		sg += uint64(m.Pix[i+1])
		sb += uint64(m.Pix[i+2])
	}
	return float64(sr) / n, float64(sg) / n, float64(sb) / n
}
