package synth

import "snmatch/internal/imaging"

// LargeView is one rendered view of the scaled synthetic taxonomy: the
// image plus the ground truth the matching benchmarks score against.
type LargeView struct {
	Image *imaging.Image
	Class Class // synthetic class id, 0..classes-1 (may exceed NumClasses)
	Model int
	View  int
}

// largeModelBase offsets LargeGallery model ids past every id the
// Table 1 datasets use (SNS1/SNS2 use 0-6, NYU 1000+, NYU subsets
// 5000+), so large-gallery views never collide with dataset views.
const largeModelBase = 100000

// largeQueryViewOffset pushes LargeQueries view indices past any
// plausible gallery viewsPerClass, so query poses never coincide with
// enrolled ones.
const largeQueryViewOffset = 1 << 20

// largeViews is the shared renderer of the scaled taxonomy: synthetic
// class c draws its geometry family from base class c % NumClasses but
// a class-specific model id, so every synthetic class renders distinct
// shapes without new drawing code.
func largeViews(classes, perClass, viewBase, size int, seed uint64) []LargeView {
	if classes < 1 || perClass < 1 {
		return nil
	}
	p := Params{Size: size, Seed: seed}
	out := make([]LargeView, 0, classes*perClass)
	for c := 0; c < classes; c++ {
		base := AllClasses[c%NumClasses]
		model := largeModelBase + c
		for v := 0; v < perClass; v++ {
			out = append(out, LargeView{
				Image: RenderView(base, model, viewBase+v, ShapeNetMode, p),
				Class: Class(c),
				Model: model,
				View:  viewBase + v,
			})
		}
	}
	return out
}

// LargeGallery renders a scaled synthetic reference gallery:
// classes x viewsPerClass views, one distinct model per synthetic
// class, clean ShapeNet-mode rendering at the default 64px size. It
// scales the ten-class Table 1 taxonomy toward the 55-synset
// ShapeNetCore layout the matching benchmarks need (e.g. 55 classes x 30
// views) — see LargeGalleryAt for the render-size knob.
//
// Views are enumerated deterministically from seed; equal arguments
// produce identical galleries.
func LargeGallery(classes, viewsPerClass int, seed uint64) []LargeView {
	return largeViews(classes, viewsPerClass, 0, 64, seed)
}

// LargeGalleryAt is LargeGallery with an explicit render size. Larger
// renders yield denser keypoints per view — the recall benchmarks use
// 128px so match scores carry enough evidence to rank views sharply.
func LargeGalleryAt(classes, viewsPerClass, size int, seed uint64) []LargeView {
	return largeViews(classes, viewsPerClass, 0, size, seed)
}

// LargeQueries renders perClass held-out query views per synthetic
// class: same models as LargeGallery(classes, ...) but view indices the
// gallery never contains, so recall measurements match unseen poses
// against enrolled models.
func LargeQueries(classes, perClass int, seed uint64) []LargeView {
	return largeViews(classes, perClass, largeQueryViewOffset, 64, seed)
}

// LargeQueriesAt is LargeQueries with an explicit render size; pair it
// with LargeGalleryAt at the same size.
func LargeQueriesAt(classes, perClass, size int, seed uint64) []LargeView {
	return largeViews(classes, perClass, largeQueryViewOffset, size, seed)
}
