package match

import (
	"math"
	"sort"
	"testing"

	"snmatch/internal/features"
	"snmatch/internal/rng"
)

// floatSet lays float descriptors out as a set's matrix.
func floatSet(desc ...[]float32) *features.Set {
	dim := 0
	if len(desc) > 0 {
		dim = len(desc[0])
	}
	s := features.NewSet(nil, false, len(desc), dim)
	for i, d := range desc {
		copy(s.FloatRow(i), d)
		s.Keypoints = append(s.Keypoints, features.Keypoint{})
	}
	return s
}

// binarySet packs byte descriptors little-endian into a set's word
// rows, the layout BRIEF writes.
func binarySet(desc ...[]byte) *features.Set {
	nb := 0
	if len(desc) > 0 {
		nb = len(desc[0])
	}
	s := features.NewSet(nil, true, len(desc), nb)
	for i, d := range desc {
		row := s.WordRow(i)
		for b, v := range d {
			row[b/8] |= uint64(v) << (8 * (b % 8))
		}
		s.Keypoints = append(s.Keypoints, features.Keypoint{})
	}
	return s
}

func TestKNNFloatOrdering(t *testing.T) {
	q := floatSet([]float32{0, 0})
	tr := floatSet([]float32{3, 0}, []float32{1, 0}, []float32{2, 0})
	knn := KNN(q, tr, 3)
	if len(knn) != 1 || len(knn[0]) != 3 {
		t.Fatalf("knn shape wrong: %v", knn)
	}
	if knn[0][0].TrainIdx != 1 || knn[0][1].TrainIdx != 2 || knn[0][2].TrainIdx != 0 {
		t.Errorf("order = %v", knn[0])
	}
	if knn[0][0].Distance != 1 {
		t.Errorf("distance = %v", knn[0][0].Distance)
	}
}

func TestKNNBinary(t *testing.T) {
	q := binarySet([]byte{0x00})
	tr := binarySet([]byte{0xff}, []byte{0x01}, []byte{0x0f})
	knn := KNN(q, tr, 2)
	if knn[0][0].TrainIdx != 1 || knn[0][0].Distance != 1 {
		t.Errorf("nearest = %+v", knn[0][0])
	}
	if knn[0][1].TrainIdx != 2 || knn[0][1].Distance != 4 {
		t.Errorf("second = %+v", knn[0][1])
	}
}

func TestKNNMixedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mixed representations did not panic")
		}
	}()
	KNN(floatSet([]float32{1}), binarySet([]byte{1}), 1)
}

func TestKNNKClamp(t *testing.T) {
	q := floatSet([]float32{0})
	tr := floatSet([]float32{1}, []float32{2})
	knn := KNN(q, tr, 0) // k < 1 behaves as k = 1
	if len(knn[0]) != 1 {
		t.Errorf("k clamp failed: %v", knn[0])
	}
	knn = KNN(q, tr, 10) // k beyond train size returns all
	if len(knn[0]) != 2 {
		t.Errorf("k overflow: %v", knn[0])
	}
}

func TestBest(t *testing.T) {
	q := floatSet([]float32{0}, []float32{10})
	tr := floatSet([]float32{1}, []float32{9})
	best := Best(q, tr)
	if len(best) != 2 || best[0].TrainIdx != 0 || best[1].TrainIdx != 1 {
		t.Errorf("best = %v", best)
	}
}

func TestRatioTest(t *testing.T) {
	knn := [][]Match{
		{{QueryIdx: 0, TrainIdx: 0, Distance: 1}, {QueryIdx: 0, TrainIdx: 1, Distance: 10}}, // passes
		{{QueryIdx: 1, TrainIdx: 2, Distance: 5}, {QueryIdx: 1, TrainIdx: 3, Distance: 6}},  // fails at 0.75
		{{QueryIdx: 2, TrainIdx: 4, Distance: 1}},                                           // too few neighbours
	}
	got := RatioTest(knn, 0.75)
	if len(got) != 1 || got[0].QueryIdx != 0 {
		t.Errorf("ratio test = %v", got)
	}
	// Stricter threshold removes everything.
	if got := RatioTest(knn, 0.05); len(got) != 0 {
		t.Errorf("strict ratio test = %v", got)
	}
}

func TestGoodMatchCountSelfMatch(t *testing.T) {
	r := rng.New(5)
	var descs [][]float32
	for i := 0; i < 20; i++ {
		d := make([]float32, 16)
		for j := range d {
			d[j] = float32(r.Float64())
		}
		descs = append(descs, d)
	}
	a := floatSet(descs...)
	if got := GoodMatchCount(a, a, 0.75); got == 0 {
		t.Error("self match found no good matches")
	}
	empty := floatSet()
	if got := GoodMatchCount(empty, a, 0.75); got != 0 {
		t.Errorf("empty query matches = %d", got)
	}
	single := floatSet(descs[0])
	if got := GoodMatchCount(a, single, 0.75); got != 0 {
		t.Errorf("single train matches = %d", got)
	}
}

// legacyKNN is the pre-flat-engine reference: build every candidate,
// sort by (distance, TrainIdx), cut to k. The optimised KNN must match
// it match-for-match.
func legacyKNN(query, train *features.Set, k int) [][]Match {
	if k < 1 {
		k = 1
	}
	out := make([][]Match, query.Len())
	for qi := 0; qi < query.Len(); qi++ {
		cands := make([]Match, 0, train.Len())
		for ti := 0; ti < train.Len(); ti++ {
			var d float32
			if query.Binary {
				d = float32(features.HammingWords(query.WordRow(qi), train.WordRow(ti)))
			} else {
				d = features.L2(query.FloatRow(qi), train.FloatRow(ti))
			}
			cands = append(cands, Match{QueryIdx: qi, TrainIdx: ti, Distance: d})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].Distance != cands[j].Distance {
				return cands[i].Distance < cands[j].Distance
			}
			return cands[i].TrainIdx < cands[j].TrainIdx
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		out[qi] = cands
	}
	return out
}

func legacyGoodMatchCount(query, train *features.Set, ratio float64) int {
	if query.Len() == 0 || train.Len() < 2 {
		return 0
	}
	return len(RatioTest(legacyKNN(query, train, 2), ratio))
}

// randomFloatSet draws integer-valued components so that distances are
// exact and repeated descriptors produce genuine distance ties.
func randomFloatSet(r *rng.RNG, n, dim, vocab int) *features.Set {
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, dim)
		for j := range rows[i] {
			rows[i][j] = float32(r.Intn(vocab))
		}
	}
	return floatSet(rows...)
}

func randomBinarySet(r *rng.RNG, n, bytes, vocab int) *features.Set {
	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = make([]byte, bytes)
		for j := range rows[i] {
			rows[i][j] = byte(r.Intn(vocab))
		}
	}
	return binarySet(rows...)
}

func knnEqual(t *testing.T, label string, want, got [][]Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: query count %d != %d", label, len(got), len(want))
	}
	for qi := range want {
		if len(want[qi]) != len(got[qi]) {
			t.Fatalf("%s q%d: %d matches, want %d", label, qi, len(got[qi]), len(want[qi]))
		}
		for i := range want[qi] {
			w, g := want[qi][i], got[qi][i]
			if w.QueryIdx != g.QueryIdx || w.TrainIdx != g.TrainIdx ||
				math.Float32bits(w.Distance) != math.Float32bits(g.Distance) {
				t.Errorf("%s q%d rank %d: got %+v, want %+v", label, qi, i, g, w)
			}
		}
	}
}

// TestKNNMatchesLegacyRandomized is the exact-equivalence contract of
// the flat engine: constant-space selection over squared distances must
// reproduce the legacy sort-based path match-for-match, including
// distance ties, for float and binary sets at every k regime (register
// path k <= 2, bounded-insertion path k > 2, k beyond train size).
func TestKNNMatchesLegacyRandomized(t *testing.T) {
	r := rng.New(71)
	for trial := 0; trial < 30; trial++ {
		nq, nt := 1+r.Intn(12), 1+r.Intn(15)
		// Small vocabularies force many exact ties.
		vocab := 2 + r.Intn(4)
		fq := randomFloatSet(r, nq, 8, vocab)
		ft := randomFloatSet(r, nt, 8, vocab)
		bq := randomBinarySet(r, nq, 4, vocab)
		bt := randomBinarySet(r, nt, 4, vocab)
		for _, k := range []int{1, 2, 3, 5, nt, nt + 7} {
			knnEqual(t, "float", legacyKNN(fq, ft, k), KNN(fq, ft, k))
			knnEqual(t, "binary", legacyKNN(bq, bt, k), KNN(bq, bt, k))
		}
	}
}

func TestKNNMatchesLegacyEdgeCases(t *testing.T) {
	r := rng.New(5)
	empty := floatSet()
	one := randomFloatSet(r, 1, 4, 5)
	many := randomFloatSet(r, 6, 4, 5)
	for _, k := range []int{1, 2, 4} {
		knnEqual(t, "empty query", legacyKNN(empty, many, k), KNN(empty, many, k))
		knnEqual(t, "empty train", legacyKNN(many, empty, k), KNN(many, empty, k))
		knnEqual(t, "single train", legacyKNN(many, one, k), KNN(many, one, k))
		knnEqual(t, "single query", legacyKNN(one, many, k), KNN(one, many, k))
	}
	// Duplicate descriptors: every distance ties, order falls back to
	// TrainIdx everywhere.
	dup := floatSet([]float32{1, 1}, []float32{1, 1}, []float32{1, 1}, []float32{1, 1})
	knnEqual(t, "all ties", legacyKNN(dup, dup, 3), KNN(dup, dup, 3))
}

func TestGoodMatchCountMatchesLegacyRandomized(t *testing.T) {
	r := rng.New(97)
	for trial := 0; trial < 40; trial++ {
		nq, nt := r.Intn(10), r.Intn(12)
		vocab := 2 + r.Intn(5)
		fq := randomFloatSet(r, nq, 8, vocab)
		ft := randomFloatSet(r, nt, 8, vocab)
		bq := randomBinarySet(r, nq, 4, vocab)
		bt := randomBinarySet(r, nt, 4, vocab)
		for _, ratio := range []float64{0.5, 0.75, 1.0} {
			if got, want := GoodMatchCount(fq, ft, ratio), legacyGoodMatchCount(fq, ft, ratio); got != want {
				t.Errorf("trial %d ratio %v float: %d != %d", trial, ratio, got, want)
			}
			if got, want := GoodMatchCount(bq, bt, ratio), legacyGoodMatchCount(bq, bt, ratio); got != want {
				t.Errorf("trial %d ratio %v binary: %d != %d", trial, ratio, got, want)
			}
		}
	}
}

func TestGoodMatchCountAllocationFree(t *testing.T) {
	r := rng.New(12)
	fq := randomFloatSet(r, 20, 16, 7)
	ft := randomFloatSet(r, 25, 16, 7)
	bq := randomBinarySet(r, 20, 8, 200)
	bt := randomBinarySet(r, 25, 8, 200)
	if n := testing.AllocsPerRun(50, func() { GoodMatchCount(fq, ft, 0.5) }); n != 0 {
		t.Errorf("float GoodMatchCount allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(50, func() { GoodMatchCount(bq, bt, 0.5) }); n != 0 {
		t.Errorf("binary GoodMatchCount allocates %v per run", n)
	}
}
