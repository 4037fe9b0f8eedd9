package imaging

import (
	"math"
	"testing"

	"snmatch/internal/arena"
)

// dirtyArena returns an arena whose free lists already hold buffers
// full of garbage, so a test catches any In-variant that forgets it
// must see zeroed memory.
func dirtyArena() *arena.Arena {
	a := arena.New()
	for _, n := range []int{31, 257, 4096} {
		f := arena.Slice[float32](a, n)
		for i := range f {
			f[i] = -12345.5
		}
		b := arena.Slice[uint8](a, n)
		for i := range b {
			b[i] = 0xAB
		}
		d := arena.Slice[float64](a, n)
		for i := range d {
			d[i] = 777.25
		}
	}
	a.Reset()
	return a
}

func testRaster(w, h int) *FloatGray {
	f := NewFloatGray(w, h)
	s := uint32(99)
	for i := range f.Pix {
		s = s*1664525 + 1013904223
		f.Pix[i] = float32(s>>16) / 977
	}
	return f
}

func floatsEqual(t *testing.T, label string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s: pixel %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestArenaVariantsBitIdentical runs every In-variant twice on a dirty,
// reused arena and requires bit equality with the heap path each time.
func TestArenaVariantsBitIdentical(t *testing.T) {
	a := dirtyArena()
	f := testRaster(53, 47)
	g := f.ToGray()
	kernel := GaussianKernel(1.6, 0)
	for round := 0; round < 2; round++ {
		floatsEqual(t, "conv", f.ConvolveSeparable(kernel).Pix, f.ConvolveSeparableIn(a, kernel).Pix)

		hgx, hgy := f.Sobel()
		agx, agy := f.SobelIn(a)
		floatsEqual(t, "sobel gx", hgx.Pix, agx.Pix)
		floatsEqual(t, "sobel gy", hgy.Pix, agy.Pix)

		floatsEqual(t, "resize", f.ResizeBilinear(31, 29).Pix, f.ResizeBilinearIn(a, 31, 29).Pix)
		floatsEqual(t, "down", f.Downsample2().Pix, f.Downsample2In(a).Pix)
		floatsEqual(t, "blur", f.GaussianBlur(2.1).Pix, f.GaussianBlurIn(a, 2.1).Pix)

		hb := g.GaussianBlur(2)
		ab := g.GaussianBlurIn(a, 2)
		for i := range hb.Pix {
			if hb.Pix[i] != ab.Pix[i] {
				t.Fatalf("gray blur: pixel %d = %d, want %d", i, ab.Pix[i], hb.Pix[i])
			}
		}

		hi := NewIntegralSum(g)
		ai := NewIntegralSumIn(a, g)
		for i := range hi.Sum {
			if hi.Sum[i] != ai.Sum[i] {
				t.Fatalf("integral: entry %d = %v, want %v", i, ai.Sum[i], hi.Sum[i])
			}
		}

		hk := GaussianKernel(0.84, 0)
		ak := GaussianKernelIn(a, 0.84, 0)
		floatsEqual(t, "kernel", hk, ak)

		a.Reset()
	}
}

// TestArenaRastersZeroed pins the make() contract of arena-backed
// raster constructors: reused pixel buffers come back zeroed.
func TestArenaRastersZeroed(t *testing.T) {
	a := arena.New()
	f := NewFloatGrayIn(a, 16, 16)
	for i := range f.Pix {
		f.Pix[i] = 3
	}
	g := NewGrayIn(a, 16, 16)
	for i := range g.Pix {
		g.Pix[i] = 7
	}
	a.Reset()
	f2 := NewFloatGrayIn(a, 16, 16)
	g2 := NewGrayIn(a, 16, 16)
	for i := range f2.Pix {
		if f2.Pix[i] != 0 {
			t.Fatalf("reused FloatGray not zeroed at %d", i)
		}
	}
	for i := range g2.Pix {
		if g2.Pix[i] != 0 {
			t.Fatalf("reused Gray not zeroed at %d", i)
		}
	}
}

// refResizeBilinear is FloatGray.ResizeBilinearIn as it read the four
// corners of every output pixel through AtClamped: the bit-equality
// reference for the row-wise form.
func refResizeBilinear(f *FloatGray, w, h int) *FloatGray {
	out := NewFloatGray(w, h)
	xr := float64(f.W) / float64(w)
	yr := float64(f.H) / float64(h)
	for y := 0; y < h; y++ {
		fy := (float64(y)+0.5)*yr - 0.5
		y0 := floorInt(fy)
		wy := float32(fy - float64(y0))
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*xr - 0.5
			x0 := floorInt(fx)
			wx := float32(fx - float64(x0))
			v00 := f.AtClamped(x0, y0)
			v10 := f.AtClamped(x0+1, y0)
			v01 := f.AtClamped(x0, y0+1)
			v11 := f.AtClamped(x0+1, y0+1)
			top := v00 + (v10-v00)*wx
			bot := v01 + (v11-v01)*wx
			out.Set(x, y, top+(bot-top)*wy)
		}
	}
	return out
}

// TestResizeBilinearMatchesReference covers doubling (SIFT's base
// image), up- and down-scales by odd factors, identity, and 1×N and
// N×1 sources and targets, on a dirty arena.
func TestResizeBilinearMatchesReference(t *testing.T) {
	a := dirtyArena()
	sizes := [][4]int{
		{128, 128, 256, 256}, {31, 29, 62, 58}, {17, 23, 40, 9}, {40, 9, 17, 23}, {8, 8, 8, 8},
		{1, 13, 5, 7}, {13, 1, 7, 5}, {9, 6, 1, 11}, {9, 6, 11, 1}, {1, 1, 3, 4}, {5, 5, 1, 1},
	}
	for i, sz := range sizes {
		f := NewFloatGray(sz[0], sz[1])
		for j := range f.Pix {
			f.Pix[j] = float32(math.Sin(float64(j)*0.37+float64(i))) * 0.5
		}
		floatsEqual(t, "resize", refResizeBilinear(f, sz[2], sz[3]).Pix, f.ResizeBilinearIn(a, sz[2], sz[3]).Pix)
		floatsEqual(t, "resize heap", refResizeBilinear(f, sz[2], sz[3]).Pix, f.ResizeBilinear(sz[2], sz[3]).Pix)
	}
}
