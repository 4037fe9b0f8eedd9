// Package match implements descriptor matching: brute-force kNN with L2
// or Hamming distance and Lowe's ratio test. It is the reference matcher
// the flat descriptor index is tested against.
//
// The brute-force kernels are allocation-free in steady state: distances
// are compared in the squared (L2) or integer (Hamming, over word-packed
// rows) domain with the square root deferred to the API boundary, and
// the 2-NN hot path tracks best/second-best in registers instead of
// sorting a candidate slice.
package match

import (
	"math"

	"snmatch/internal/features"
)

// Match pairs a query descriptor with a train descriptor.
type Match struct {
	QueryIdx int
	TrainIdx int
	Distance float32
}

// checkRepresentations panics on mixed float/binary matching, mirroring
// OpenCV's BFMatcher contract.
func checkRepresentations(query, train *features.Set) {
	if query.Binary != train.Binary && query.Len() > 0 && train.Len() > 0 {
		panic("match: mixed descriptor representations")
	}
}

// best2Float returns the squared distances and train indices of the two
// nearest train descriptors to the qi-th query descriptor. Found reports
// how many neighbours exist (min(2, train.Len())). Ties keep the lower
// TrainIdx first, matching the sort order of the legacy candidate path.
func best2Float(query, train *features.Set, qi int) (s1, s2 float32, i1, i2, found int) {
	s1, s2 = inf32, inf32
	i1, i2 = -1, -1
	q := query.FloatRow(qi)
	for ti := 0; ti < train.Len(); ti++ {
		d := features.L2Squared(q, train.FloatRow(ti))
		if d < s1 {
			s2, i2 = s1, i1
			s1, i1 = d, ti
		} else if d < s2 {
			s2, i2 = d, ti
		}
	}
	return s1, s2, i1, i2, neighbours(i1, i2)
}

// neighbours counts how many of the two best slots were filled.
func neighbours(i1, i2 int) int {
	switch {
	case i2 >= 0:
		return 2
	case i1 >= 0:
		return 1
	}
	return 0
}

// best2Binary is best2Float over Hamming distance (integer domain).
func best2Binary(query, train *features.Set, qi int) (s1, s2, i1, i2, found int) {
	s1, s2 = math.MaxInt, math.MaxInt
	i1, i2 = -1, -1
	q := query.WordRow(qi)
	for ti := 0; ti < train.Len(); ti++ {
		d := features.HammingWords(q, train.WordRow(ti))
		if d < s1 {
			s2, i2 = s1, i1
			s1, i1 = d, ti
		} else if d < s2 {
			s2, i2 = d, ti
		}
	}
	return s1, s2, i1, i2, neighbours(i1, i2)
}

// inf32 is the float32 +Inf used to seed distance minima.
var inf32 = float32(math.Inf(1))

// scored is a candidate during bounded top-k selection. key is the
// squared L2 distance for float sets and the integer Hamming distance
// (exactly representable in float32) for binary sets.
type scored struct {
	key float32
	ti  int
}

// KNN returns, for every query descriptor, its k nearest train
// descriptors by brute force, sorted by increasing distance with ties
// broken on the lower TrainIdx. Binary sets use Hamming distance, float
// sets L2. Both sets must have the same descriptor representation.
//
// Selection is constant-space per query: k <= 2 tracks best/second-best
// in registers, larger k inserts into one k-sized scratch buffer shared
// across the query sweep; no train.Len()-sized candidate slice is built.
//
// Float ordering note: candidates are ranked by squared distance (the
// square root is taken once per reported match). When two distinct
// squared distances round to the same float32 square root — adjacent
// representable values, essentially never with real descriptors — the
// reported Distances still equal a sqrt-domain sort's exactly, but the
// tie-broken TrainIdx order may differ from one. Distance-dependent
// consumers (RatioTest, GoodMatchCount, the descriptor pipeline) are
// unaffected.
func KNN(query, train *features.Set, k int) [][]Match {
	checkRepresentations(query, train)
	if k < 1 {
		k = 1
	}
	out := make([][]Match, query.Len())
	if k <= 2 {
		for qi := 0; qi < query.Len(); qi++ {
			ms := make([]Match, 0, k)
			if train.Binary {
				s1, s2, i1, i2, found := best2Binary(query, train, qi)
				if found >= 1 {
					ms = append(ms, Match{QueryIdx: qi, TrainIdx: i1, Distance: float32(s1)})
				}
				if k == 2 && found >= 2 {
					ms = append(ms, Match{QueryIdx: qi, TrainIdx: i2, Distance: float32(s2)})
				}
			} else {
				s1, s2, i1, i2, found := best2Float(query, train, qi)
				if found >= 1 {
					ms = append(ms, Match{QueryIdx: qi, TrainIdx: i1, Distance: sqrt32(s1)})
				}
				if k == 2 && found >= 2 {
					ms = append(ms, Match{QueryIdx: qi, TrainIdx: i2, Distance: sqrt32(s2)})
				}
			}
			out[qi] = ms
		}
		return out
	}

	// General k: one bounded insertion buffer reused across queries.
	buf := make([]scored, 0, k)
	for qi := 0; qi < query.Len(); qi++ {
		buf = buf[:0]
		for ti := 0; ti < train.Len(); ti++ {
			var key float32
			if train.Binary {
				key = float32(features.HammingWords(query.WordRow(qi), train.WordRow(ti)))
			} else {
				key = features.L2Squared(query.FloatRow(qi), train.FloatRow(ti))
			}
			insertBounded(&buf, k, scored{key: key, ti: ti})
		}
		ms := make([]Match, len(buf))
		for i, c := range buf {
			d := c.key
			if !train.Binary {
				d = sqrt32(d)
			}
			ms[i] = Match{QueryIdx: qi, TrainIdx: c.ti, Distance: d}
		}
		out[qi] = ms
	}
	return out
}

// insertBounded inserts c into the (key, ti)-sorted buffer, keeping at
// most k entries. Later arrivals with an equal key rank after earlier
// ones, which preserves the ascending-TrainIdx tie-break because train
// descriptors are scanned in index order.
func insertBounded(buf *[]scored, k int, c scored) {
	b := *buf
	if len(b) == k && c.key >= b[len(b)-1].key {
		return
	}
	pos := len(b)
	for pos > 0 && b[pos-1].key > c.key {
		pos--
	}
	if len(b) < k {
		b = append(b, scored{})
	}
	copy(b[pos+1:], b[pos:])
	b[pos] = c
	*buf = b
}

// Best returns the single nearest neighbour for every query descriptor.
func Best(query, train *features.Set) []Match {
	knn := KNN(query, train, 1)
	out := make([]Match, 0, len(knn))
	for _, ms := range knn {
		if len(ms) > 0 {
			out = append(out, ms[0])
		}
	}
	return out
}

// RatioTest applies Lowe's ratio test to 2-NN results: a match is kept
// when its distance is below ratio times the distance of the second
// nearest neighbour. Queries with fewer than two neighbours are dropped.
func RatioTest(knn [][]Match, ratio float64) []Match {
	var out []Match
	for _, ms := range knn {
		if len(ms) < 2 {
			continue
		}
		if float64(ms[0].Distance) < ratio*float64(ms[1].Distance) {
			out = append(out, ms[0])
		}
	}
	return out
}

// GoodMatchCount is the similarity score the descriptor pipeline uses for
// a gallery view: the number of ratio-test survivors over a 2-NN sweep.
// It allocates nothing: best and second-best are tracked in registers
// and the square root is taken only for the two winners of each query.
func GoodMatchCount(query, train *features.Set, ratio float64) int {
	if query.Len() == 0 || train.Len() < 2 {
		return 0
	}
	checkRepresentations(query, train)
	count := 0
	if train.Binary {
		for qi := 0; qi < query.Len(); qi++ {
			s1, s2, _, _, _ := best2Binary(query, train, qi)
			if float64(float32(s1)) < ratio*float64(float32(s2)) {
				count++
			}
		}
	} else {
		for qi := 0; qi < query.Len(); qi++ {
			s1, s2, _, _, _ := best2Float(query, train, qi)
			if float64(sqrt32(s1)) < ratio*float64(sqrt32(s2)) {
				count++
			}
		}
	}
	return count
}

func sqrt32(v float32) float32 {
	if v <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(v)))
}
