package imaging

import (
	"math"
	"testing"

	"snmatch/internal/geom"
)

func TestGaussianKernelNormalised(t *testing.T) {
	for _, sigma := range []float64{0.5, 1, 1.6, 3} {
		k := GaussianKernel(sigma, 0)
		if len(k)%2 == 0 {
			t.Fatalf("kernel length even: %d", len(k))
		}
		sum := float32(0)
		for _, v := range k {
			sum += v
		}
		if math.Abs(float64(sum)-1) > 1e-5 {
			t.Errorf("sigma %v kernel sum = %v", sigma, sum)
		}
		// Symmetry.
		for i := 0; i < len(k)/2; i++ {
			if k[i] != k[len(k)-1-i] {
				t.Errorf("kernel asymmetric at %d", i)
			}
		}
		// Peak at centre.
		if k[len(k)/2] < k[0] {
			t.Error("kernel peak not at centre")
		}
	}
	if k := GaussianKernel(0, 0); len(k) != 1 || k[0] != 1 {
		t.Errorf("degenerate kernel = %v", k)
	}
}

func TestGaussianBlurPreservesUniform(t *testing.T) {
	f := NewFloatGray(9, 9)
	for i := range f.Pix {
		f.Pix[i] = 100
	}
	out := f.GaussianBlur(1.5)
	for i, v := range out.Pix {
		if math.Abs(float64(v)-100) > 1e-3 {
			t.Fatalf("uniform blur changed pixel %d: %v", i, v)
		}
	}
}

func TestGaussianBlurSpreadsImpulse(t *testing.T) {
	f := NewFloatGray(11, 11)
	f.Set(5, 5, 1000)
	out := f.GaussianBlur(1.0)
	if out.At(5, 5) >= 1000 {
		t.Error("centre not attenuated")
	}
	if out.At(5, 4) <= 0 || out.At(4, 5) <= 0 {
		t.Error("impulse did not spread")
	}
	// Energy conserved away from the border.
	var sum float32
	for _, v := range out.Pix {
		sum += v
	}
	if math.Abs(float64(sum)-1000) > 1 {
		t.Errorf("energy = %v, want ~1000", sum)
	}
	// Isotropy.
	if math.Abs(float64(out.At(5, 4)-out.At(4, 5))) > 1e-3 {
		t.Error("blur not isotropic")
	}
}

func TestImageGaussianBlurChannels(t *testing.T) {
	m := NewImageFilled(9, 9, RGB{200, 0, 50})
	out := m.GaussianBlur(2)
	if out.At(4, 4) != (RGB{200, 0, 50}) {
		t.Errorf("uniform RGB blur changed: %v", out.At(4, 4))
	}
	if got := m.GaussianBlur(0); got.At(1, 1) != m.At(1, 1) {
		t.Error("sigma 0 should copy")
	}
}

func TestSobelGradients(t *testing.T) {
	// Vertical step edge: left dark, right bright.
	f := NewFloatGray(8, 8)
	for y := 0; y < 8; y++ {
		for x := 4; x < 8; x++ {
			f.Set(x, y, 100)
		}
	}
	gx, gy := f.Sobel()
	if gx.At(4, 4) <= 0 {
		t.Errorf("gx at edge = %v, want > 0", gx.At(4, 4))
	}
	if math.Abs(float64(gy.At(4, 4))) > 1e-3 {
		t.Errorf("gy at vertical edge = %v, want 0", gy.At(4, 4))
	}
	// Horizontal edge transposes the roles.
	f2 := NewFloatGray(8, 8)
	for y := 4; y < 8; y++ {
		for x := 0; x < 8; x++ {
			f2.Set(x, y, 100)
		}
	}
	gx2, gy2 := f2.Sobel()
	if gy2.At(4, 4) <= 0 {
		t.Errorf("gy at edge = %v", gy2.At(4, 4))
	}
	if math.Abs(float64(gx2.At(4, 4))) > 1e-3 {
		t.Errorf("gx at horizontal edge = %v", gx2.At(4, 4))
	}
}

func TestSubtract(t *testing.T) {
	a := NewFloatGray(3, 3)
	b := NewFloatGray(3, 3)
	a.Set(1, 1, 10)
	b.Set(1, 1, 4)
	d := a.Subtract(b)
	if d.At(1, 1) != 6 {
		t.Errorf("Subtract = %v", d.At(1, 1))
	}
	defer func() {
		if recover() == nil {
			t.Error("size mismatch did not panic")
		}
	}()
	a.Subtract(NewFloatGray(2, 2))
}

func TestIntegralBoxSum(t *testing.T) {
	g := NewGray(4, 4)
	for i := range g.Pix {
		g.Pix[i] = 1
	}
	it := NewIntegral(g)
	if got := it.BoxSum(0, 0, 4, 4); got != 16 {
		t.Errorf("full sum = %v", got)
	}
	if got := it.BoxSum(1, 1, 3, 3); got != 4 {
		t.Errorf("inner sum = %v", got)
	}
	// Clipping.
	if got := it.BoxSum(-5, -5, 10, 10); got != 16 {
		t.Errorf("clipped sum = %v", got)
	}
	if got := it.BoxSum(2, 2, 2, 2); got != 0 {
		t.Errorf("empty box sum = %v", got)
	}
}

func TestIntegralMatchesBruteForce(t *testing.T) {
	g := NewGray(13, 9)
	for i := range g.Pix {
		g.Pix[i] = uint8((i*37 + 11) % 251)
	}
	it := NewIntegral(g)
	brute := func(x0, y0, x1, y1 int) (s, sq float64) {
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				v := float64(g.At(x, y))
				s += v
				sq += v * v
			}
		}
		return
	}
	cases := [][4]int{{0, 0, 13, 9}, {3, 2, 7, 8}, {0, 0, 1, 1}, {12, 8, 13, 9}, {5, 5, 5, 9}}
	for _, c := range cases {
		ws, wq := brute(c[0], c[1], c[2], c[3])
		if got := it.BoxSum(c[0], c[1], c[2], c[3]); got != ws {
			t.Errorf("BoxSum%v = %v, want %v", c, got, ws)
		}
		if got := it.BoxSqSum(c[0], c[1], c[2], c[3]); got != wq {
			t.Errorf("BoxSqSum%v = %v, want %v", c, got, wq)
		}
	}
	if got := it.BoxMean(0, 0, 13, 9); math.Abs(got-it.BoxSum(0, 0, 13, 9)/117) > 1e-9 {
		t.Errorf("BoxMean = %v", got)
	}
	if got := it.BoxMean(4, 4, 4, 4); got != 0 {
		t.Errorf("empty BoxMean = %v", got)
	}
}

func TestFillRectAndStroke(t *testing.T) {
	m := NewImage(10, 10)
	m.FillRect(geom.R(2, 2, 5, 5), White)
	if m.At(2, 2) != White || m.At(4, 4) != White {
		t.Error("FillRect interior missing")
	}
	if m.At(5, 5) == White {
		t.Error("FillRect overfilled (half-open violated)")
	}
	m2 := NewImage(10, 10)
	m2.StrokeRect(geom.R(1, 1, 9, 9), 2, White)
	if m2.At(1, 1) != White || m2.At(8, 8) != White {
		t.Error("StrokeRect corners missing")
	}
	if m2.At(5, 5) == White {
		t.Error("StrokeRect filled interior")
	}
}

func TestFillPolygonTriangle(t *testing.T) {
	m := NewImage(20, 20)
	tri := []geom.Point{geom.Pt(2, 2), geom.Pt(18, 2), geom.Pt(10, 18)}
	m.FillPolygon(tri, White)
	if m.At(10, 5) != White {
		t.Error("triangle interior not filled")
	}
	if m.At(2, 18) == White || m.At(18, 18) == White {
		t.Error("triangle exterior filled")
	}
	// Filled area should approximate the analytic area.
	count := 0
	for i := 0; i < len(m.Pix); i += 3 {
		if m.Pix[i] == 255 {
			count++
		}
	}
	want := 0.5 * 16 * 16
	if math.Abs(float64(count)-want) > want*0.15 {
		t.Errorf("filled pixels = %d, want ~%v", count, want)
	}
}

func TestFillPolygonDegenerate(t *testing.T) {
	m := NewImage(5, 5)
	m.FillPolygon([]geom.Point{geom.Pt(1, 1), geom.Pt(2, 2)}, White) // no-op
	for i := 0; i < len(m.Pix); i += 3 {
		if m.Pix[i] != 0 {
			t.Fatal("degenerate polygon painted pixels")
		}
	}
}

func TestFillEllipseAndCircle(t *testing.T) {
	m := NewImage(21, 21)
	m.FillCircle(geom.Pt(10.5, 10.5), 8, White)
	if m.At(10, 10) != White {
		t.Error("circle centre not filled")
	}
	if m.At(0, 0) == White {
		t.Error("circle corner filled")
	}
	count := 0
	for i := 0; i < len(m.Pix); i += 3 {
		if m.Pix[i] == 255 {
			count++
		}
	}
	want := math.Pi * 64
	if math.Abs(float64(count)-want) > want*0.1 {
		t.Errorf("circle area = %d, want ~%v", count, want)
	}
}

func TestLineDraws(t *testing.T) {
	m := NewImage(20, 20)
	m.Line(geom.Pt(2, 10), geom.Pt(18, 10), 3, White)
	if m.At(10, 10) != White {
		t.Error("horizontal line centre missing")
	}
	if m.At(10, 5) == White {
		t.Error("line too thick")
	}
	// Zero-length line degenerates to a dot.
	m2 := NewImage(10, 10)
	m2.Line(geom.Pt(5, 5), geom.Pt(5, 5), 4, White)
	if m2.At(5, 5) != White {
		t.Error("dot missing")
	}
}

func TestStrokePolygonAndEllipse(t *testing.T) {
	m := NewImage(30, 30)
	square := []geom.Point{geom.Pt(5, 5), geom.Pt(25, 5), geom.Pt(25, 25), geom.Pt(5, 25)}
	m.StrokePolygon(square, 2, White)
	if m.At(15, 5) != White {
		t.Error("polygon stroke top edge missing")
	}
	if m.At(15, 15) == White {
		t.Error("polygon stroke filled interior")
	}
	m2 := NewImage(30, 30)
	m2.StrokeEllipse(geom.Pt(15, 15), 10, 6, 2, White)
	if m2.At(25, 15) != White && m2.At(24, 15) != White {
		t.Error("ellipse stroke right extreme missing")
	}
	if m2.At(15, 15) == White {
		t.Error("ellipse stroke filled centre")
	}
}

func TestDrawImageWithKey(t *testing.T) {
	dst := NewImageFilled(10, 10, RGB{50, 50, 50})
	src := NewImageFilled(4, 4, White)
	src.Set(0, 0, Black)
	dst.DrawImage(src, 3, 3, Black, true)
	if dst.At(3, 3) != (RGB{50, 50, 50}) {
		t.Error("key colour was drawn")
	}
	if dst.At(4, 4) != White {
		t.Error("content not drawn")
	}
	// Without key, everything is copied.
	dst2 := NewImageFilled(10, 10, RGB{50, 50, 50})
	dst2.DrawImage(src, 3, 3, Black, false)
	if dst2.At(3, 3) != Black {
		t.Error("keyless draw skipped pixel")
	}
	// Clipping draws the visible part only, without panicking.
	dst.DrawImage(src, 8, 8, Black, false)
	if dst.At(9, 9) != White {
		t.Error("clipped draw missing")
	}
}

// --- Bit-exactness of the optimised kernels against naive references ---

// naiveConvolveH/V are the original per-pixel clamped tap loops the
// optimised kernels must reproduce bit for bit. Tap i of a kernel
// reads the pixel i-r away (r = len(kernel)/2), which is the centred
// window for odd lengths and defines even-length kernels too.
func naiveConvolveH(f *FloatGray, kernel []float32) *FloatGray {
	r := len(kernel) / 2
	out := NewFloatGray(f.W, f.H)
	for y := 0; y < f.H; y++ {
		row := f.Pix[y*f.W : (y+1)*f.W]
		for x := 0; x < f.W; x++ {
			var acc float32
			for i, kv := range kernel {
				sx := x + i - r
				if sx < 0 {
					sx = 0
				} else if sx >= f.W {
					sx = f.W - 1
				}
				acc += row[sx] * kv
			}
			out.Pix[y*f.W+x] = acc
		}
	}
	return out
}

func naiveConvolveV(f *FloatGray, kernel []float32) *FloatGray {
	r := len(kernel) / 2
	out := NewFloatGray(f.W, f.H)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			var acc float32
			for i, kv := range kernel {
				sy := y + i - r
				if sy < 0 {
					sy = 0
				} else if sy >= f.H {
					sy = f.H - 1
				}
				acc += f.Pix[sy*f.W+x] * kv
			}
			out.Pix[y*f.W+x] = acc
		}
	}
	return out
}

func naiveSobel(f *FloatGray) (gx, gy *FloatGray) {
	gx = NewFloatGray(f.W, f.H)
	gy = NewFloatGray(f.W, f.H)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			p00 := f.AtClamped(x-1, y-1)
			p10 := f.AtClamped(x, y-1)
			p20 := f.AtClamped(x+1, y-1)
			p01 := f.AtClamped(x-1, y)
			p21 := f.AtClamped(x+1, y)
			p02 := f.AtClamped(x-1, y+1)
			p12 := f.AtClamped(x, y+1)
			p22 := f.AtClamped(x+1, y+1)
			gx.Pix[y*f.W+x] = (p20 + 2*p21 + p22) - (p00 + 2*p01 + p02)
			gy.Pix[y*f.W+x] = (p02 + 2*p12 + p22) - (p00 + 2*p10 + p20)
		}
	}
	return gx, gy
}

func randomRaster(w, h int, seed uint32) *FloatGray {
	f := NewFloatGray(w, h)
	s := seed
	for i := range f.Pix {
		s = s*1664525 + 1013904223
		f.Pix[i] = float32(s>>8) / float32(1<<24)
	}
	return f
}

func rastersBitEqual(t *testing.T, label string, want, got *FloatGray) {
	t.Helper()
	if want.W != got.W || want.H != got.H {
		t.Fatalf("%s: size %dx%d != %dx%d", label, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if math.Float32bits(want.Pix[i]) != math.Float32bits(got.Pix[i]) {
			t.Fatalf("%s: pixel %d = %v, want %v", label, i, got.Pix[i], want.Pix[i])
		}
	}
}

func TestConvolveBitIdenticalToNaive(t *testing.T) {
	// 40, 47 and 256 columns hit each vector block size (32 and 8) plus
	// a tail; radius 20 is wider than most of the rasters.
	sizes := [][2]int{{1, 1}, {3, 3}, {4, 6}, {7, 5}, {16, 16}, {33, 9}, {64, 64}, {40, 3}, {47, 5}, {256, 4}}
	for _, sz := range sizes {
		f := randomRaster(sz[0], sz[1], uint32(77+sz[0]*31+sz[1]))
		for _, radius := range []int{0, 1, 2, 5, 9, 20} {
			kernel := GaussianKernel(float64(radius)/3+0.2, radius)
			label := "conv " + itoa(sz[0]) + "x" + itoa(sz[1]) + " r" + itoa(radius)
			rastersBitEqual(t, label, naiveConvolveV(naiveConvolveH(f, kernel), kernel), f.ConvolveSeparable(kernel))
		}
	}
}

func TestConvolveSeparableFusionBitIdentical(t *testing.T) {
	// The fused ring-buffer pass must equal the unfused H-then-V
	// composition exactly.
	for _, sz := range [][2]int{{1, 1}, {2, 3}, {5, 5}, {9, 16}, {64, 48}, {40, 6}, {47, 9}, {256, 5}} {
		f := randomRaster(sz[0], sz[1], uint32(101+sz[0]*7+sz[1]))
		for _, radius := range []int{0, 1, 3, 7, 15} {
			kernel := GaussianKernel(float64(radius)/3+0.3, radius)
			want := naiveConvolveV(naiveConvolveH(f, kernel), kernel)
			got := f.ConvolveSeparable(kernel)
			label := "sep " + itoa(sz[0]) + "x" + itoa(sz[1]) + " r" + itoa(radius)
			rastersBitEqual(t, label, want, got)
		}
		// Even-length kernels shift the window asymmetrically; the
		// fused ring sizing must not clobber the window's first row.
		for _, kernel := range [][]float32{
			{0.25, 0.25, 0.25, 0.25},
			{0.5, 0.5},
			{0.1, 0.2, 0.3, 0.2, 0.1, 0.1},
		} {
			want := naiveConvolveV(naiveConvolveH(f, kernel), kernel)
			got := f.ConvolveSeparable(kernel)
			label := "sep even-k" + itoa(len(kernel)) + " " + itoa(sz[0]) + "x" + itoa(sz[1])
			rastersBitEqual(t, label, want, got)
		}
	}
}

func TestSobelBitIdenticalToNaive(t *testing.T) {
	for _, sz := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {5, 4}, {17, 23}, {64, 64}} {
		f := randomRaster(sz[0], sz[1], uint32(5+sz[0]+sz[1]*13))
		wantX, wantY := naiveSobel(f)
		gotX, gotY := f.Sobel()
		label := "sobel " + itoa(sz[0]) + "x" + itoa(sz[1])
		rastersBitEqual(t, label+" gx", wantX, gotX)
		rastersBitEqual(t, label+" gy", wantY, gotY)
	}
}

func TestBoxSumClampMatchesReference(t *testing.T) {
	g := NewGray(13, 9)
	s := uint32(3)
	for i := range g.Pix {
		s = s*1664525 + 1013904223
		g.Pix[i] = byte(s >> 24)
	}
	it := NewIntegral(g)
	ref := func(x0, y0, x1, y1 int) float64 {
		clamp := func(v, hi int) int {
			if v < 0 {
				return 0
			}
			if v > hi {
				return hi
			}
			return v
		}
		x0, x1 = clamp(x0, it.W), clamp(x1, it.W)
		y0, y1 = clamp(y0, it.H), clamp(y1, it.H)
		if x1 < x0 {
			x1 = x0
		}
		if y1 < y0 {
			y1 = y0
		}
		sum := it.Sum
		stride := it.W + 1
		return sum[y1*stride+x1] - sum[y0*stride+x1] - sum[y1*stride+x0] + sum[y0*stride+x0]
	}
	coords := []int{-20, -5, -1, 0, 1, 4, 8, 9, 12, 13, 14, 40}
	for _, x0 := range coords {
		for _, y0 := range coords {
			for _, x1 := range coords {
				for _, y1 := range coords {
					if got, want := it.BoxSum(x0, y0, x1, y1), ref(x0, y0, x1, y1); got != want {
						t.Fatalf("BoxSum(%d,%d,%d,%d) = %v, want %v", x0, y0, x1, y1, got, want)
					}
				}
			}
		}
	}
}

func TestNewIntegralSumMatchesNewIntegral(t *testing.T) {
	g := NewGray(21, 17)
	s := uint32(9)
	for i := range g.Pix {
		s = s*1664525 + 1013904223
		g.Pix[i] = byte(s >> 24)
	}
	full, sumOnly := NewIntegral(g), NewIntegralSum(g)
	for i := range full.Sum {
		if full.Sum[i] != sumOnly.Sum[i] {
			t.Fatalf("Sum[%d] = %v, want %v", i, sumOnly.Sum[i], full.Sum[i])
		}
	}
	if sumOnly.SqSum != nil {
		t.Error("NewIntegralSum built SqSum")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [4]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
