package baseline

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/search"
	"repro/internal/si"
)

func plantedDS(n int, seed int64) *dataset.Dataset {
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

func TestMeanShiftScorerFindsPlanted(t *testing.T) {
	ds := plantedDS(80, 1)
	sc := NewMeanShiftScorer(ds, 0)
	res := search.Beam(ds, sc, search.Params{MaxDepth: 1})
	top := res.Top()
	if top == nil {
		t.Fatal("no results")
	}
	if ds.Descriptors[top.Intention[0].Attr].Name != "flag" {
		t.Fatalf("top = %v", top.Intention.Format(ds))
	}
	if top.SI <= 0 {
		t.Fatalf("quality = %v", top.SI)
	}
}

func TestMeanShiftScoreValue(t *testing.T) {
	ds := plantedDS(80, 2)
	sc := NewMeanShiftScorer(ds, 0)
	ext := bitset.FromIndices(80, []int{0, 1, 2, 3})
	q, _, mean, ok := sc.Score(ext, 1)
	if !ok {
		t.Fatal("score failed")
	}
	if mean[0] < 2 {
		t.Fatalf("subgroup mean = %v", mean[0])
	}
	if q <= 0 {
		t.Fatalf("z-quality = %v", q)
	}
	if _, _, _, ok := sc.Score(bitset.New(80), 1); ok {
		t.Fatal("empty extension must fail")
	}
}

func TestWRAccScorer(t *testing.T) {
	ds := plantedDS(80, 3)
	sc := NewWRAccScorer(ds, 0, 1.0) // positives = planted rows
	// The planted extension should have near-maximal WRAcc.
	planted := bitset.FromIndices(80, seqInts(0, 20))
	qPlanted, _, _, _ := sc.Score(planted, 1)
	random := bitset.FromIndices(80, seqInts(20, 40))
	qRandom, _, _, _ := sc.Score(random, 1)
	if qPlanted <= qRandom {
		t.Fatalf("WRAcc planted %v <= random %v", qPlanted, qRandom)
	}
	// WRAcc of the full data is zero by construction.
	qFull, _, _, _ := sc.Score(bitset.Full(80), 1)
	if math.Abs(qFull) > 1e-12 {
		t.Fatalf("WRAcc(full) = %v", qFull)
	}
}

func TestDispersionCorrectedPrefersTightSubgroups(t *testing.T) {
	// Two subgroups with the same size and mean shift; the one with the
	// smaller internal variance must win.
	n := 40
	y := mat.NewDense(n, 1)
	for i := 0; i < 10; i++ {
		y.Set(i, 0, 5) // tight
	}
	vals := []float64{1, 9, 2, 8, 3, 7, 0, 10, 2.5, 7.5} // mean 5, spread out
	for i := 0; i < 10; i++ {
		y.Set(10+i, 0, vals[i])
	}
	ds := &dataset.Dataset{
		Descriptors: []dataset.Column{{Name: "d", Kind: dataset.Numeric, Values: make([]float64, n)}},
		TargetNames: []string{"t"},
		Y:           y,
	}
	sc := NewDispersionCorrectedScorer(ds, 0)
	tight := bitset.FromIndices(n, seqInts(0, 10))
	loose := bitset.FromIndices(n, seqInts(10, 20))
	qt, _, _, _ := sc.Score(tight, 1)
	ql, _, _, _ := sc.Score(loose, 1)
	if qt <= ql {
		t.Fatalf("dispersion correction failed: tight %v <= loose %v", qt, ql)
	}
}

func TestBranchAndBoundMatchesExhaustive(t *testing.T) {
	ds := plantedDS(60, 4)
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
	ds := plantedDS(200, 5)
	bb := BranchAndBoundImpact(ds, 0, 3, 4, 2)
	ex := ExhaustiveImpact(ds, 0, 3, 4, 2)
	if math.Abs(bb.Quality-ex.Quality) > 1e-12 {
		t.Fatalf("B&B quality %v != exhaustive %v", bb.Quality, ex.Quality)
	}
	if bb.Explored >= ex.Explored {
		t.Fatalf("no savings: B&B %d vs exhaustive %d nodes", bb.Explored, ex.Explored)
	}
}

func TestRandomSubgroupSIBaselineIsLow(t *testing.T) {
	ds := plantedDS(200, 6)
	m, err := background.New(200, mat.Vec{0}, mat.Eye(1))
	if err != nil {
		t.Fatal(err)
	}
	baselineSI := RandomSubgroupSI(m, ds.Y, 50, 30, si.Default(), 7)
	// The planted subgroup's SI should dwarf the random baseline.
	plantedExt := bitset.FromIndices(200, seqInts(0, 50))
	yhat := mat.Vec{0}
	var sum float64
	plantedExt.ForEach(func(i int) { sum += ds.Y.At(i, 0) })
	yhat[0] = sum / 50
	plantedSI, _, err := si.LocationSI(m, plantedExt, yhat, 1, si.Default())
	if err != nil {
		t.Fatal(err)
	}
	if baselineSI >= plantedSI/2 {
		t.Fatalf("random baseline %v too close to planted %v", baselineSI, plantedSI)
	}
}

func seqInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
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
		ds := plantedDS(c.n, c.seed)
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
