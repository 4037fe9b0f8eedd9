package sift

import (
	"math"
	"testing"

	"snmatch/internal/dataset"
	"snmatch/internal/imaging"
	"snmatch/internal/rng"
)

// The reference paths below are the per-pixel forms the extractor had
// before its hot loops were restructured: every neighbour and gradient
// read through At, every square of the descriptor window visited, and
// package math called once per sample. The tests require the
// restructured extractor to reproduce them bit for bit.

func refIsExtremum(prev, cur, next *imaging.FloatGray, x, y int, v float32) bool {
	if v > 0 {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if prev.At(x+dx, y+dy) > v || next.At(x+dx, y+dy) > v {
					return false
				}
				if (dx != 0 || dy != 0) && cur.At(x+dx, y+dy) > v {
					return false
				}
			}
		}
		return true
	}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if prev.At(x+dx, y+dy) < v || next.At(x+dx, y+dy) < v {
				return false
			}
			if (dx != 0 || dy != 0) && cur.At(x+dx, y+dy) < v {
				return false
			}
		}
	}
	return true
}

// refCandidates is the extrema sweep's candidate list through At: every
// pixel over the contrast threshold that refIsExtremum accepts, as
// (octave, layer, x, y) in sweep order.
func refCandidates(dog [][]*imaging.FloatGray, p Params) [][4]int {
	threshold := float32(0.5 * p.ContrastThreshold / float64(p.NOctaveLayers))
	var out [][4]int
	for o := range dog {
		for layer := 1; layer <= p.NOctaveLayers; layer++ {
			prev, cur, next := dog[o][layer-1], dog[o][layer], dog[o][layer+1]
			for y := imgBorder; y < cur.H-imgBorder; y++ {
				for x := imgBorder; x < cur.W-imgBorder; x++ {
					v := cur.At(x, y)
					if absf(v) <= threshold || !refIsExtremum(prev, cur, next, x, y, v) {
						continue
					}
					out = append(out, [4]int{o, layer, x, y})
				}
			}
		}
	}
	return out
}

func refAppendOrientations(dst []internalKp, gaussOct []*imaging.FloatGray, kp internalKp) []internalKp {
	img := gaussOct[kp.layer]
	radius := int(math.Round(float64(orientRadius) * float64(kp.sclOctv)))
	if radius < 1 {
		radius = 1
	}
	sigma := orientSigmaFac * float64(kp.sclOctv)
	expDenom := 2 * sigma * sigma
	x0, y0 := int(math.Round(float64(kp.x))), int(math.Round(float64(kp.y)))

	var hist [orientBins]float64
	for dy := -radius; dy <= radius; dy++ {
		y := y0 + dy
		if y <= 0 || y >= img.H-1 {
			continue
		}
		for dx := -radius; dx <= radius; dx++ {
			x := x0 + dx
			if x <= 0 || x >= img.W-1 {
				continue
			}
			gx := float64(img.At(x+1, y) - img.At(x-1, y))
			gy := float64(img.At(x, y+1) - img.At(x, y-1))
			mag := math.Hypot(gx, gy)
			ori := math.Atan2(gy, gx)
			wgt := math.Exp(-(float64(dx*dx) + float64(dy*dy)) / expDenom)
			bin := int(math.Round(float64(orientBins) * (ori + math.Pi) / (2 * math.Pi)))
			bin = ((bin % orientBins) + orientBins) % orientBins
			hist[bin] += wgt * mag
		}
	}
	var smooth [orientBins]float64
	for i := 0; i < orientBins; i++ {
		smooth[i] = (hist[(i-2+orientBins)%orientBins]+hist[(i+2)%orientBins])*(1.0/16) +
			(hist[(i-1+orientBins)%orientBins]+hist[(i+1)%orientBins])*(4.0/16) +
			hist[i]*(6.0/16)
	}
	maxV := 0.0
	for _, v := range smooth {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		kp.angle = 0
		return append(dst, kp)
	}
	thresholdV := peakRatio * maxV
	appended := false
	for i := 0; i < orientBins; i++ {
		l := (i - 1 + orientBins) % orientBins
		r := (i + 1) % orientBins
		if smooth[i] <= smooth[l] || smooth[i] <= smooth[r] || smooth[i] < thresholdV {
			continue
		}
		bin := float64(i) + 0.5*(smooth[l]-smooth[r])/(smooth[l]-2*smooth[i]+smooth[r])
		bin = math.Mod(bin+float64(orientBins), float64(orientBins))
		angle := bin*(2*math.Pi/float64(orientBins)) - math.Pi
		if angle < 0 {
			angle += 2 * math.Pi
		}
		k2 := kp
		k2.angle = float32(angle)
		dst = append(dst, k2)
		appended = true
	}
	if !appended {
		kp.angle = 0
		dst = append(dst, kp)
	}
	return dst
}

func refComputeDescriptor(gauss [][]*imaging.FloatGray, kp internalKp, desc []float32) {
	img := gauss[kp.octave][kp.layer]
	d, n := descWidth, descBins
	histWidth := descSclFactor * float64(kp.sclOctv)
	radius := int(math.Round(histWidth * math.Sqrt2 * (float64(d) + 1) * 0.5))
	if maxR := int(math.Hypot(float64(img.W), float64(img.H))); radius > maxR {
		radius = maxR
	}
	cosA := math.Cos(float64(kp.angle))
	sinA := math.Sin(float64(kp.angle))
	binsPerRad := float64(n) / (2 * math.Pi)
	expDenom := float64(d) * float64(d) * 0.5
	x0, y0 := int(math.Round(float64(kp.x))), int(math.Round(float64(kp.y)))

	var hist [(descWidth + 2) * (descWidth + 2) * (descBins + 2)]float64
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			rotX := (cosA*float64(dx) + sinA*float64(dy)) / histWidth
			rotY := (-sinA*float64(dx) + cosA*float64(dy)) / histWidth
			rBin := rotY + float64(d)/2 - 0.5
			cBin := rotX + float64(d)/2 - 0.5
			if rBin <= -1 || rBin >= float64(d) || cBin <= -1 || cBin >= float64(d) {
				continue
			}
			x, y := x0+dx, y0+dy
			if x <= 0 || x >= img.W-1 || y <= 0 || y >= img.H-1 {
				continue
			}
			gx := float64(img.At(x+1, y) - img.At(x-1, y))
			gy := float64(img.At(x, y+1) - img.At(x, y-1))
			mag := math.Hypot(gx, gy)
			ori := math.Atan2(gy, gx) - float64(kp.angle)
			for ori < 0 {
				ori += 2 * math.Pi
			}
			for ori >= 2*math.Pi {
				ori -= 2 * math.Pi
			}
			oBin := ori * binsPerRad
			wgt := math.Exp(-(rotX*rotX + rotY*rotY) / expDenom)
			v := mag * wgt

			r0 := int(math.Floor(rBin))
			c0 := int(math.Floor(cBin))
			o0 := int(math.Floor(oBin))
			rb := rBin - float64(r0)
			cb := cBin - float64(c0)
			ob := oBin - float64(o0)
			for ri := 0; ri < 2; ri++ {
				rw := 1 - rb
				if ri == 1 {
					rw = rb
				}
				rr := r0 + ri + 1
				if rr < 0 || rr >= d+2 {
					continue
				}
				for ci := 0; ci < 2; ci++ {
					cw := 1 - cb
					if ci == 1 {
						cw = cb
					}
					cc := c0 + ci + 1
					if cc < 0 || cc >= d+2 {
						continue
					}
					for oi := 0; oi < 2; oi++ {
						ow := 1 - ob
						if oi == 1 {
							ow = ob
						}
						oo := (o0 + oi) % n
						if oo < 0 {
							oo += n
						}
						hist[histIdx(rr, cc, oo)] += v * rw * cw * ow
					}
				}
			}
		}
	}
	k := 0
	for r := 1; r <= d; r++ {
		for c := 1; c <= d; c++ {
			for o := 0; o < n; o++ {
				desc[k] = float32(hist[histIdx(r, c, o)])
				k++
			}
		}
	}
	normalizeDescriptor(desc)
}

// noiseImage is uniform 8-bit noise: dense DoG extrema at every scale.
func noiseImage(seed uint64, w, h int) *imaging.Gray {
	r := rng.New(seed)
	g := imaging.NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = uint8(r.Intn(256))
	}
	return g
}

// referenceScenes are the images the reference tests build pyramids
// from: synthetic blobs and texture, noise at non-square sizes, and
// two 128px renders of the kind classify-sift-large queries with.
func referenceScenes() []*imaging.Gray {
	scenes := []*imaging.Gray{blobImage(), texturedScene(1), texturedScene(9), noiseImage(3, 40, 40), noiseImage(4, 57, 23)}
	for _, s := range dataset.BuildLargeQueriesAt(2, 1, 128, 9).Samples {
		scenes = append(scenes, s.Image.ToGray())
	}
	return scenes
}

// pyramids builds the Gaussian and DoG pyramids ExtractScratch builds,
// and a scratch whose gradient rows fit them.
func pyramids(g *imaging.Gray, p Params) (gauss, dog [][]*imaging.FloatGray, sc *Scratch) {
	base := initialImage(g, true, p.Sigma, nil)
	nOctaves := max(int(math.Round(math.Log2(float64(min(base.W, base.H)))))-2, 1)
	gauss = buildGaussianPyramid(base, nOctaves, p.NOctaveLayers, p.Sigma, nil)
	sc = new(Scratch)
	sc.grad.reserve(base.W)
	return gauss, buildDoGPyramid(gauss, nil), sc
}

// TestIsExtremumMatchesReference compares the row-slice neighbourhood
// test with the At form at every interior pixel of random DoG-like
// rasters, coarse ones (three levels, so neighbours tie) and fine ones,
// for both signs of v.
func TestIsExtremumMatchesReference(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 40; trial++ {
		w, h := 3+r.Intn(20), 3+r.Intn(20)
		var layers [3]*imaging.FloatGray
		for k := range layers {
			layers[k] = imaging.NewFloatGray(w, h)
			for i := range layers[k].Pix {
				if trial%2 == 0 {
					layers[k].Pix[i] = float32(r.Intn(3) - 1)
				} else {
					layers[k].Pix[i] = float32(r.Range(-1, 1))
				}
			}
		}
		for y := 1; y < h-1; y++ {
			for x := 1; x < w-1; x++ {
				v := layers[1].At(x, y)
				want := refIsExtremum(layers[0], layers[1], layers[2], x, y, v)
				if got := isExtremum(layers[0], layers[1], layers[2], x, y, v); got != want {
					t.Fatalf("trial %d (%dx%d) at (%d, %d), v %v: got %v, want %v", trial, w, h, x, y, v, got, want)
				}
			}
		}
	}
}

// TestExtremaSweepMatchesReference runs findScaleSpaceExtrema over
// real pyramids against the At sweep's candidates, each refined and
// given its orientations by the same functions, in the same order.
func TestExtremaSweepMatchesReference(t *testing.T) {
	p := Params{}.withDefaults()
	for i, g := range referenceScenes() {
		gauss, dog, sc := pyramids(g, p)
		var want []internalKp
		cands := refCandidates(dog, p)
		for _, c := range cands {
			if kp, ok := adjustLocalExtremum(dog[c[0]], c[0], c[1], c[2], c[3], p); ok {
				want = appendOrientations(want, gauss[c[0]], kp, &sc.grad)
			}
		}
		got := findScaleSpaceExtrema(gauss, dog, p, sc)
		if len(got) != len(want) {
			t.Fatalf("scene %d: %d keypoints, reference sweep %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("scene %d: keypoint %d is %+v, reference %+v", i, j, got[j], want[j])
			}
		}
		t.Logf("scene %d: %d candidates, %d keypoints", i, len(cands), len(got))
	}
}

// TestDescriptorMatchesReference compares computeDescriptor and
// appendOrientations with the per-sample reference on every octave
// and layer of real pyramids: at the detected keypoints, and at
// synthetic ones on and beyond the image border, at axis angles and
// random ones, and at scales whose window radius is clipped to the
// image diagonal.
func TestDescriptorMatchesReference(t *testing.T) {
	p := Params{}.withDefaults()
	r := rng.New(13)
	angles := []float32{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2, float32(math.Nextafter32(2*math.Pi, 0)), 1e-7}
	for si, scene := range referenceScenes() {
		gauss, dog, sc := pyramids(scene, p)
		kps := findScaleSpaceExtrema(gauss, dog, p, sc)
		g := &sc.grad
		for o := range gauss {
			img := gauss[o][0]
			for trial := 0; trial < 60; trial++ {
				kp := internalKp{
					octave:  o,
					layer:   1 + r.Intn(p.NOctaveLayers),
					x:       float32(r.Range(-3, float64(img.W)+3)),
					y:       float32(r.Range(-3, float64(img.H)+3)),
					sclOctv: float32(r.Range(0.5, 4)),
					angle:   float32(r.Range(0, 2*math.Pi)),
				}
				switch trial % 6 {
				case 0: // on the border
					kp.x, kp.y = float32(r.Intn(2)*(img.W-1)), float32(r.Intn(img.H))
				case 1:
					kp.angle = angles[r.Intn(len(angles))]
				case 2: // window radius past the image diagonal
					kp.sclOctv = float32(math.Hypot(float64(img.W), float64(img.H)) / 9)
				}
				kps = append(kps, kp)
			}
		}
		want, got := make([]float32, 128), make([]float32, 128)
		for i, kp := range kps {
			refComputeDescriptor(gauss, kp, want)
			computeDescriptor(gauss, kp, got, g)
			for j := range want {
				if math.Float32bits(want[j]) != math.Float32bits(got[j]) {
					t.Fatalf("scene %d keypoint %d %+v: descriptor component %d = %v, reference %v", si, i, kp, j, got[j], want[j])
				}
			}
			wantO := refAppendOrientations(nil, gauss[kp.octave], kp)
			gotO := appendOrientations(nil, gauss[kp.octave], kp, g)
			if len(wantO) != len(gotO) {
				t.Fatalf("scene %d keypoint %d %+v: %d orientations, reference %d", si, i, kp, len(gotO), len(wantO))
			}
			for j := range wantO {
				if wantO[j] != gotO[j] {
					t.Fatalf("scene %d keypoint %d: orientation %d = %v, reference %v", si, i, j, gotO[j].angle, wantO[j].angle)
				}
			}
		}
	}
}
