package imaging

import (
	"bytes"
	"image"
	"image/color"
	"math/rand"
	"testing"
)

// genericFromStd is the reference conversion FromStdImage's RGBA fast
// path must reproduce: the high byte of each channel of At().RGBA().
func genericFromStd(src image.Image) *Image {
	b := src.Bounds()
	out := NewImage(b.Dx(), b.Dy())
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			r, g, bl, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			out.Set(x, y, RGB{uint8(r >> 8), uint8(g >> 8), uint8(bl >> 8)})
		}
	}
	return out
}

func sameImage(t *testing.T, label string, want, got *Image) {
	t.Helper()
	if want.W != got.W || want.H != got.H {
		t.Fatalf("%s: %dx%d, want %dx%d", label, got.W, got.H, want.W, want.H)
	}
	if !bytes.Equal(want.Pix, got.Pix) {
		for i := range want.Pix {
			if want.Pix[i] != got.Pix[i] {
				t.Fatalf("%s: byte %d (pixel %d) = %d, want %d", label, i, i/3, got.Pix[i], want.Pix[i])
			}
		}
	}
}

// TestFromStdImageFastPathsMatchGeneric checks the *image.RGBA fast
// path against the At().RGBA() loop over random pixels, translucent
// ones included, at random sizes including 1xN and Nx1, and over
// SubImage views whose bounds start at a non-zero Min. Types without a
// fast path must take the loop.
func TestFromStdImageFastPathsMatchGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	sizes := [][2]int{{1, 1}, {1, 37}, {29, 1}, {2, 2}}
	for k := 0; k < 40; k++ {
		sizes = append(sizes, [2]int{1 + r.Intn(48), 1 + r.Intn(48)})
	}
	for _, sz := range sizes {
		w, h := sz[0], sz[1]
		src := image.NewRGBA(image.Rect(0, 0, w, h))
		r.Read(src.Pix)
		sameImage(t, "full "+src.Bounds().String(), genericFromStd(src), FromStdImage(src))
		x0, y0 := r.Intn(w), r.Intn(h)
		sub := src.SubImage(image.Rect(x0, y0, x0+1+r.Intn(w-x0), y0+1+r.Intn(h-y0)))
		sameImage(t, "sub "+sub.Bounds().String(), genericFromStd(sub), FromStdImage(sub))
	}
	nrgba := image.NewNRGBA(image.Rect(3, 5, 20, 11))
	r.Read(nrgba.Pix)
	sameImage(t, "nrgba", genericFromStd(nrgba), FromStdImage(nrgba))
	pal := image.NewPaletted(image.Rect(0, 0, 9, 4), color.Palette{color.NRGBA{200, 100, 50, 128}, color.Black})
	sameImage(t, "paletted", genericFromStd(pal), FromStdImage(pal))
}
