package search

import (
	"math"
	"strings"
	"testing"

	"repro/internal/background"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/si"
)

// freshScorer builds an SI scorer over a fresh N(mu, sigma2) model so
// Exhaustive can serve as the oracle for OptimalLocation1D.
func freshScorer(t *testing.T, n int, y *mat.Dense, mu, sigma2 float64, p si.Params) *si.LocationScorer {
	t.Helper()
	cov := mat.NewDense(1, 1)
	cov.Set(0, 0, sigma2)
	m, err := background.New(n, mat.Vec{mu}, cov)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := si.NewLocationScorer(m, y, p)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestOptimalLocation1DMatchesExhaustive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ds := plantedDS(50, seed)
		p := si.Default()
		sc := freshScorer(t, ds.N(), ds.Y, 0, 1, p)
		opt := mustOptimal(t, ds, 0, 1, p, 2, 4, 2)
		exh := Exhaustive(ds, sc, Params{MaxDepth: 2, NumSplits: 4, MinSupport: 2, TopK: 5, NoPrune: true})
		et := exh.Top()
		if et == nil {
			t.Fatal("exhaustive found nothing")
		}
		if opt.SI != et.SI || opt.IC != et.IC {
			t.Fatalf("seed %d: B&B SI %v IC %v != exhaustive %v %v (%v vs %v)",
				seed, opt.SI, opt.IC, et.SI, et.IC,
				opt.Intention.Format(ds), et.Intention.Format(ds))
		}
		if !opt.Extension.Equal(et.Extension) {
			t.Fatalf("seed %d: extensions differ", seed)
		}
	}
}

func TestOptimalLocation1DPrunes(t *testing.T) {
	ds := plantedDS(150, 4)
	p := si.Default()
	opt := mustOptimal(t, ds, 0, 1, p, 3, 4, 2)
	sc := freshScorer(t, ds.N(), ds.Y, 0, 1, p)
	exh := Exhaustive(ds, sc, Params{MaxDepth: 3, NumSplits: 4, MinSupport: 2, TopK: 5, NoPrune: true})
	if opt.Explored >= exh.Evaluated {
		t.Fatalf("no pruning savings: B&B %d nodes vs exhaustive %d",
			opt.Explored, exh.Evaluated)
	}
	if opt.Pruned == 0 {
		t.Fatal("expected at least one pruned subtree")
	}
	// The optimum must still match.
	if math.Abs(opt.SI-exh.Top().SI) > 1e-9*(1+math.Abs(opt.SI)) {
		t.Fatalf("pruning broke optimality: %v vs %v", opt.SI, exh.Top().SI)
	}
}

func TestOptimalLocation1DFindsPlanted(t *testing.T) {
	ds := plantedDS(80, 5)
	opt := mustOptimal(t, ds, 0, 1, si.Default(), 2, 4, 2)
	if opt.Extension == nil {
		t.Fatal("no result")
	}
	// The planted subgroup is rows [0, 20) with target ≈ 3; the optimum
	// must cover it (possibly exactly via flag='1').
	covered := 0
	for i := 0; i < 20; i++ {
		if opt.Extension.Contains(i) {
			covered++
		}
	}
	if covered < 18 {
		t.Fatalf("optimum misses the planted subgroup: %d/20 covered (%s)",
			covered, opt.Intention.Format(ds))
	}
	if opt.SI <= 0 {
		t.Fatalf("SI = %v", opt.SI)
	}
}

func TestOptimalLocation1DValidation(t *testing.T) {
	ds := plantedDS(20, 6)
	if _, err := OptimalLocation1D(ds, 0, -1, si.Default(), 2, 4, 2); err == nil || !strings.Contains(err.Error(), "positive variance") {
		t.Fatalf("negative variance: err = %v", err)
	}
	if _, err := OptimalLocation1D(ds, 0, 1, si.Params{Gamma: -0.5, Eta: 1}, 2, 4, 2); err == nil {
		t.Fatal("negative gamma accepted")
	}
	ds2 := plantedDS(20, 7)
	ds2.TargetNames = append(ds2.TargetNames, "extra")
	y2 := mat.NewDense(20, 2)
	ds2.Y = y2
	if _, err := OptimalLocation1D(ds2, 0, 1, si.Default(), 2, 4, 2); err == nil || !strings.Contains(err.Error(), "exactly one target") {
		t.Fatalf("two targets: err = %v", err)
	}
}

// mustOptimal runs the exact search on valid input.
func mustOptimal(tb testing.TB, ds *dataset.Dataset, mu, sigma2 float64, p si.Params,
	maxDepth, numSplits, minSupport int) *OptimalResult {
	tb.Helper()
	opt, err := OptimalLocation1D(ds, mu, sigma2, p, maxDepth, numSplits, minSupport)
	if err != nil {
		tb.Fatal(err)
	}
	return opt
}
