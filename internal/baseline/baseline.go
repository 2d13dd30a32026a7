// Package baseline provides the comparison methods the paper situates
// itself against (§IV): a classic single-target subgroup discovery
// quality (the z-score / mean-shift test), binarized Weighted Relative
// Accuracy, a dispersion-corrected quality in the spirit of Boley et
// al. (ECML-PKDD 2017) together with their impact quality and its tight
// optimistic estimate, and the random-subgroup SI baseline used in the
// Fig. 3 noise experiment.
//
// All scorers implement search.Scorer, so they run on the same beam
// engine as the SI measure. The impact search is no loop of its own:
// it is search.Exhaustive over ImpactScorer, whose BoundWorker is the
// tight optimistic estimate, pruned (BranchAndBoundImpact) or not
// (ExhaustiveImpact).
package baseline

import (
	"math"
	"sort"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/pattern"
	"repro/internal/randx"
	"repro/internal/search"
	"repro/internal/si"
	"repro/internal/stats"
)

// MeanShiftScorer implements the classic subgroup discovery quality for
// a single numeric target: q(I) = √|I| · |µ_I − µ₀| / σ₀ (the z-score of
// the subgroup mean under iid sampling). It is "objective": it never
// adapts to what the user has already seen.
type MeanShiftScorer struct {
	y      []float64
	mu0    float64
	sigma0 float64
}

// NewMeanShiftScorer builds the scorer for target column j of the
// dataset.
func NewMeanShiftScorer(ds *dataset.Dataset, j int) *MeanShiftScorer {
	col := ds.TargetColumn(j)
	return &MeanShiftScorer{
		y:      col,
		mu0:    stats.Mean(col),
		sigma0: math.Sqrt(stats.Variance(col)),
	}
}

// Score implements search.Scorer.
func (s *MeanShiftScorer) Score(ext *bitset.Set, numConds int) (float64, float64, mat.Vec, bool) {
	cnt := ext.Count()
	if cnt == 0 || s.sigma0 == 0 {
		return 0, 0, nil, false
	}
	var sum float64
	ext.ForEach(func(i int) { sum += s.y[i] })
	mean := sum / float64(cnt)
	q := math.Sqrt(float64(cnt)) * math.Abs(mean-s.mu0) / s.sigma0
	return q, q, mat.Vec{mean}, true
}

// WRAccScorer binarizes the target at a threshold and scores subgroups
// by Weighted Relative Accuracy: (|I|/n)·(p_I − p₀).
type WRAccScorer struct {
	pos []bool
	p0  float64
	n   int
}

// NewWRAccScorer builds the scorer for target column j, with rows
// counted positive when y > threshold.
func NewWRAccScorer(ds *dataset.Dataset, j int, threshold float64) *WRAccScorer {
	col := ds.TargetColumn(j)
	pos := make([]bool, len(col))
	np := 0
	for i, v := range col {
		if v > threshold {
			pos[i] = true
			np++
		}
	}
	return &WRAccScorer{pos: pos, p0: float64(np) / float64(len(col)), n: len(col)}
}

// Score implements search.Scorer.
func (s *WRAccScorer) Score(ext *bitset.Set, numConds int) (float64, float64, mat.Vec, bool) {
	cnt := ext.Count()
	if cnt == 0 {
		return 0, 0, nil, false
	}
	np := 0
	ext.ForEach(func(i int) {
		if s.pos[i] {
			np++
		}
	})
	pI := float64(np) / float64(cnt)
	q := float64(cnt) / float64(s.n) * (pI - s.p0)
	return q, q, mat.Vec{pI}, true
}

// DispersionCorrectedScorer scores subgroups by coverage times mean
// shift, discounted by the subgroup's own dispersion — the shape of the
// dispersion-corrected quality of Boley et al. (2017):
// q(I) = (|I|/n)·max(0, µ_I − µ₀) / (1 + σ_I).
type DispersionCorrectedScorer struct {
	y   []float64
	mu0 float64
	n   int
}

// NewDispersionCorrectedScorer builds the scorer for target column j.
func NewDispersionCorrectedScorer(ds *dataset.Dataset, j int) *DispersionCorrectedScorer {
	col := ds.TargetColumn(j)
	return &DispersionCorrectedScorer{y: col, mu0: stats.Mean(col), n: len(col)}
}

// Score implements search.Scorer.
func (s *DispersionCorrectedScorer) Score(ext *bitset.Set, numConds int) (float64, float64, mat.Vec, bool) {
	cnt := ext.Count()
	if cnt == 0 {
		return 0, 0, nil, false
	}
	var w stats.Welford
	ext.ForEach(func(i int) { w.Add(s.y[i]) })
	shift := w.Mean() - s.mu0
	if shift < 0 {
		shift = 0
	}
	q := float64(cnt) / float64(s.n) * shift / (1 + math.Sqrt(w.Var()))
	return q, q, mat.Vec{w.Mean()}, true
}

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

// Score implements search.Scorer.
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

// NewBoundWorker implements engine.BoundScorer.
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
	res := search.Exhaustive(ds, NewImpactScorer(ds, j), search.Params{
		MaxDepth: maxDepth, NumSplits: numSplits, MinSupport: minSupport,
		TopK: 1, NoPrune: noPrune,
	})
	out := &ImpactResult{Quality: math.Inf(-1), Explored: res.Evaluated, Pruned: res.Pruned}
	if top := res.Top(); top != nil {
		out.Intention, out.Extension, out.Quality = top.Intention, top.Extension, top.SI
	}
	return out
}

// RandomSubgroupSI estimates the SI a "meaningless" subgroup of the
// given size achieves under the model — the baseline curve of Fig. 3 —
// by averaging the location SI of `repeats` uniformly drawn extensions.
func RandomSubgroupSI(m background.Reader, y *mat.Dense, size, repeats int, p si.Params, seed int64) float64 {
	src := randx.New(seed)
	n := y.R
	var total float64
	cnt := 0
	for r := 0; r < repeats; r++ {
		perm := src.Perm(n)
		ext := bitset.New(n)
		for _, i := range perm[:size] {
			ext.Add(i)
		}
		yhat := pattern.SubgroupMean(y, ext)
		s, _, err := si.LocationSI(m, ext, yhat, 1, p)
		if err != nil {
			continue
		}
		total += s
		cnt++
	}
	if cnt == 0 {
		return math.NaN()
	}
	return total / float64(cnt)
}
