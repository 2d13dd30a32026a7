package search

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// The impact quality of Boley et al. (ECML-PKDD 2017) is the one
// bounded scorer besides SI. Its exact search checks that Exhaustive's
// pruning by a tight optimistic estimate loses nothing.

// ImpactScorer scores subgroups by the impact quality of Boley et al.,
// q(I) = (|I|/n)·(µ_I − µ₀), for one target column. Its BoundWorker is
// their tight optimistic estimate: for fixed size k the quality grows
// with the subgroup's target sum, which no k-subset of a parent can
// push past the sum of the parent's k largest values.
type ImpactScorer struct {
	y   []float64
	mu0 float64
	n   int
}

// NewImpactScorer builds the scorer for target column j.
func NewImpactScorer(ds *dataset.Dataset, j int) *ImpactScorer {
	y := ds.TargetColumn(j)
	return &ImpactScorer{y: y, mu0: stats.Mean(y), n: ds.N()}
}

// NewWorker implements engine.Scorer: the scorer is its own worker.
func (s *ImpactScorer) NewWorker() engine.Worker { return s }

// Score implements engine.Worker.
func (s *ImpactScorer) Score(ext *bitset.Set, numConds int) (float64, float64, mat.Vec, bool) {
	cnt := ext.Count()
	if cnt == 0 {
		return 0, 0, nil, false
	}
	var sum float64
	ext.ForEach(func(i int) { sum += s.y[i] })
	mean := sum / float64(cnt)
	q := float64(cnt) / float64(s.n) * (mean - s.mu0)
	return q, q, mat.Vec{mean}, true
}

// ScoreStats implements engine.Worker through Score.
func (s *ImpactScorer) ScoreStats(ext *bitset.Set, _ mat.Vec, _, numConds int) (float64, float64, mat.Vec, bool) {
	return s.Score(ext, numConds)
}

// NewBoundWorker implements engine.Scorer.
func (s *ImpactScorer) NewBoundWorker() engine.BoundWorker { return &impactBound{s: s} }

// impactBound answers size-k quality bounds from the prefix sums of a
// prepared parent's target values in descending order, kept in the
// caller's scratch.
type impactBound struct {
	s      *ImpactScorer
	prefix []float64 // prefix[k] = Σ of the parent's k largest values
	slack  float64   // summation-error allowance on any prefix sum
}

// Prepare implements engine.BoundWorker.
func (w *impactBound) Prepare(parent *bitset.Set, scratch *[]float64) bool {
	prefix := append((*scratch)[:0], 0)
	absSum := 0.0
	parent.ForEach(func(i int) {
		prefix = append(prefix, w.s.y[i])
		absSum += math.Abs(w.s.y[i])
	})
	*scratch = prefix
	w.prefix = prefix
	vals := prefix[1:]
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	for i := 1; i < len(vals); i++ {
		vals[i] += vals[i-1]
	}
	// The scoring path sums in row order, the prefix in sorted order:
	// each carries at most m·ε·Σ|y| of rounding.
	w.slack = float64(len(vals)) * 4e-16 * absSum
	return len(vals) > 0
}

// BoundSI implements engine.BoundWorker; the quality does not depend
// on the number of conditions.
func (w *impactBound) BoundSI(size, numConds int) float64 {
	k := min(size, len(w.prefix)-1)
	return (w.prefix[k] + w.slack - float64(k)*w.s.mu0) / float64(w.s.n)
}

// ImpactResult is the outcome of the exact impact search.
type ImpactResult struct {
	Intention pattern.Intention
	Extension *bitset.Set
	Quality   float64
	// Explored counts the nodes visited; Pruned the subtrees cut by the
	// tight optimistic estimate.
	Explored, Pruned int
}

// BranchAndBoundImpact finds the conjunction (up to maxDepth conditions)
// maximizing the impact quality for target column j exactly: the exact
// search over ImpactScorer, pruned by its tight optimistic estimate.
// Non-positive arguments mean the paper defaults (depth 4, 4 splits,
// support 2).
func BranchAndBoundImpact(ds *dataset.Dataset, j, maxDepth, numSplits, minSupport int) *ImpactResult {
	return impactSearch(ds, j, maxDepth, numSplits, minSupport, false)
}

// ExhaustiveImpact computes the same optimum without pruning, as the
// test oracle for the branch-and-bound. Non-positive arguments mean the
// same defaults as BranchAndBoundImpact.
func ExhaustiveImpact(ds *dataset.Dataset, j, maxDepth, numSplits, minSupport int) *ImpactResult {
	return impactSearch(ds, j, maxDepth, numSplits, minSupport, true)
}

func impactSearch(ds *dataset.Dataset, j, maxDepth, numSplits, minSupport int, noPrune bool) *ImpactResult {
	res := Exhaustive(ds, NewImpactScorer(ds, j), Params{
		MaxDepth: maxDepth, NumSplits: numSplits, MinSupport: minSupport,
		TopK: 1, NoPrune: noPrune,
	})
	out := &ImpactResult{Quality: math.Inf(-1), Explored: res.Evaluated, Pruned: res.Pruned}
	if top := res.Top(); top != nil {
		out.Intention, out.Extension, out.Quality = top.Intention, top.Extension, top.SI
	}
	return out
}

// impactPlantedDS is a planted one-target set for the impact tests: a
// quarter of the rows carry flag = 1 and a target near 3, the rest a
// target near 0, beside a uniform junk column.
func impactPlantedDS(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	y := mat.NewDense(n, 1)
	flag := make([]float64, n)
	num := make([]float64, n)
	for i := 0; i < n; i++ {
		if i < n/4 {
			flag[i] = 1
			y.Set(i, 0, 3+0.2*rng.NormFloat64())
		} else {
			y.Set(i, 0, 0.2*rng.NormFloat64())
		}
		num[i] = rng.Float64()
	}
	return &dataset.Dataset{
		Name: "planted",
		Descriptors: []dataset.Column{
			{Name: "flag", Kind: dataset.Binary, Values: flag, Levels: []string{"0", "1"}},
			{Name: "junk", Kind: dataset.Numeric, Values: num},
		},
		TargetNames: []string{"t"},
		Y:           y,
	}
}

func TestBranchAndBoundMatchesExhaustive(t *testing.T) {
	ds := impactPlantedDS(60, 4)
	bb := BranchAndBoundImpact(ds, 0, 2, 4, 2)
	ex := ExhaustiveImpact(ds, 0, 2, 4, 2)
	if math.Abs(bb.Quality-ex.Quality) > 1e-12 {
		t.Fatalf("B&B quality %v != exhaustive %v", bb.Quality, ex.Quality)
	}
	if !bb.Extension.Equal(ex.Extension) {
		t.Fatalf("B&B extension differs: %v vs %v",
			bb.Intention.Format(ds), ex.Intention.Format(ds))
	}
	if bb.Explored > ex.Explored {
		t.Fatalf("B&B explored more nodes (%d) than exhaustive (%d)",
			bb.Explored, ex.Explored)
	}
	if bb.Pruned == 0 {
		t.Log("warning: no pruning occurred on this instance")
	}
}

func TestBranchAndBoundPrunes(t *testing.T) {
	ds := impactPlantedDS(200, 5)
	bb := BranchAndBoundImpact(ds, 0, 3, 4, 2)
	ex := ExhaustiveImpact(ds, 0, 3, 4, 2)
	if math.Abs(bb.Quality-ex.Quality) > 1e-12 {
		t.Fatalf("B&B quality %v != exhaustive %v", bb.Quality, ex.Quality)
	}
	if bb.Explored >= ex.Explored {
		t.Fatalf("no savings: B&B %d vs exhaustive %d nodes", bb.Explored, ex.Explored)
	}
}

// TestImpactQualityPinned pins the impact optimum, bit for bit, to the
// value the hand-written branch-and-bound this search replaced found on
// the same planted sets: the scorer sums in the same order, so the
// exact search must agree with and without pruning.
func TestImpactQualityPinned(t *testing.T) {
	for _, c := range []struct {
		n, depth int
		seed     int64
		bits     uint64
	}{
		{60, 2, 4, 0x3fe2d2ca05eba512},
		{200, 3, 5, 0x3fe2212d6df80a60},
	} {
		ds := impactPlantedDS(c.n, c.seed)
		for _, res := range []*ImpactResult{
			BranchAndBoundImpact(ds, 0, c.depth, 4, 2),
			ExhaustiveImpact(ds, 0, c.depth, 4, 2),
		} {
			if got := math.Float64bits(res.Quality); got != c.bits {
				t.Fatalf("seed %d: quality %.17g (%#x), want %.17g (%#x)", c.seed,
					res.Quality, got, math.Float64frombits(c.bits), c.bits)
			}
		}
	}
}
