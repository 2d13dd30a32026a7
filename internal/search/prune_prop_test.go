package search

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/si"
)

// multiDS builds a random dataset with d target columns and three
// descriptors, with enough planted structure that beams and top-k logs
// fill with distinct scores.
func multiDS(n, d int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	y := mat.NewDense(n, d)
	flag := make([]float64, n)
	numA := make([]float64, n)
	numB := make([]float64, n)
	names := make([]string, d)
	for j := range names {
		names[j] = "t"
	}
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			flag[i] = 1
		}
		numA[i] = rng.NormFloat64()
		numB[i] = rng.NormFloat64()
		for j := 0; j < d; j++ {
			y.Set(i, j, 0.6*numA[i]+0.3*flag[i]+0.5*rng.NormFloat64())
		}
	}
	return &dataset.Dataset{
		Name: "multi",
		Descriptors: []dataset.Column{
			{Name: "flag", Kind: dataset.Binary, Values: flag, Levels: []string{"0", "1"}},
			{Name: "a", Kind: dataset.Numeric, Values: numA},
			{Name: "b", Kind: dataset.Numeric, Values: numB},
		},
		TargetNames: names,
		Y:           y,
	}
}

// locationScorerFor builds an SI scorer over a fresh background model,
// optionally with a few committed location patterns so the model has
// multiple parameter groups (the residuals then mix group means).
func locationScorerFor(t *testing.T, ds *dataset.Dataset, commits int) *si.LocationScorer {
	t.Helper()
	m, err := background.New(ds.N(), make(mat.Vec, ds.Dy()), mat.Eye(ds.Dy()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(commits) + 7))
	target := make(mat.Vec, ds.Dy())
	for c := 0; c < commits; c++ {
		ext := bitset.New(ds.N())
		lo := rng.Intn(ds.N() - 40)
		for i := lo; i < lo+20+rng.Intn(20); i++ {
			ext.Add(i)
		}
		target[0] = 0.2 * float64(c+1)
		if err := m.CommitLocation(ext, target); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := si.NewLocationScorer(m, ds.Y, si.Default())
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestBoundAdmissibility verifies the core pruning invariant: for every
// refinement child = parent ∩ cond of a prepared parent, the bound the
// evaluator would compare (BoundSI at the child's exact size, inflated
// by the evaluator's slack) is at least the child's true SI. Covers the
// d=1 signed-residual bound and the d≥2 triangle-inequality bound, on
// fresh and multi-group (committed) models.
func TestBoundAdmissibility(t *testing.T) {
	cases := []struct {
		name    string
		ds      *dataset.Dataset
		commits int
	}{
		{"d1-fresh", plantedDS(300, 1), 0},
		{"d1-committed", plantedDS(300, 2), 3},
		{"d3-fresh", multiDS(250, 3, 3), 0},
		{"d3-committed", multiDS(250, 3, 4), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := locationScorerFor(t, tc.ds, tc.commits)
			bw := sc.NewBoundWorker()
			if bw == nil {
				t.Fatal("expected a bound worker for this model shape")
			}
			w := sc.NewWorker()
			lang := engine.LanguageFor(tc.ds, 4)
			rng := rand.New(rand.NewSource(99))
			n := tc.ds.N()
			scratch := bitset.New(n)

			// Parents: a handful of condition extensions plus random subsets.
			var parents []*bitset.Set
			for i := 0; i < len(lang.Exts) && i < 6; i++ {
				parents = append(parents, lang.Exts[i*len(lang.Exts)/6])
			}
			for trial := 0; trial < 4; trial++ {
				p := bitset.New(n)
				for i := 0; i < n; i++ {
					if rng.Intn(3) != 0 {
						p.Add(i)
					}
				}
				parents = append(parents, p)
			}

			checked := 0
			for _, parent := range parents {
				if !bw.Prepare(parent, new([]float64)) {
					continue
				}
				for ci := range lang.Exts {
					size := bitset.AndCountInto(scratch, parent, lang.Exts[ci])
					if size == 0 {
						continue
					}
					for _, numConds := range []int{1, 2, 3} {
						trueSI, _, _, ok := w.Score(scratch, numConds)
						if !ok {
							continue
						}
						ub := bw.BoundSI(size, numConds)
						inflated := ub + 1e-9*(math.Abs(ub)+1)
						if trueSI > inflated {
							t.Fatalf("bound violated: cond %d size %d numConds %d: true SI %.17g > inflated bound %.17g",
								ci, size, numConds, trueSI, inflated)
						}
						checked++
					}
				}
			}
			if checked == 0 {
				t.Fatal("no refinements checked")
			}
		})
	}
}

// foundEqual compares two search results field by field, bit-exactly.
func foundEqual(a, b Found) bool {
	if a.SI != b.SI || a.IC != b.IC || a.Size != b.Size {
		return false
	}
	if len(a.Intention) != len(b.Intention) {
		return false
	}
	for i := range a.Intention {
		if a.Intention[i] != b.Intention[i] {
			return false
		}
	}
	if (a.Extension == nil) != (b.Extension == nil) {
		return false
	}
	if a.Extension != nil && !a.Extension.Equal(b.Extension) {
		return false
	}
	if len(a.Mean) != len(b.Mean) {
		return false
	}
	for i := range a.Mean {
		if a.Mean[i] != b.Mean[i] {
			return false
		}
	}
	return true
}

// TestPrunedBeamBitIdentical runs the beam with pruning on and off at
// several parallelism levels and demands bit-identical patterns — the
// acceptance property of the bounded beam: pruning and parallel
// scheduling may change which candidates are scored, but never what is
// returned.
func TestPrunedBeamBitIdentical(t *testing.T) {
	datasets := []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"planted-d1", plantedDS(400, 5)},
		{"multi-d3", multiDS(300, 3, 6)},
	}
	pars := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, d := range datasets {
		t.Run(d.name, func(t *testing.T) {
			sc := locationScorerFor(t, d.ds, 0)
			base := Params{MaxDepth: 3, BeamWidth: 8, TopK: 20, Parallelism: 1, NoPrune: true}
			ref := Beam(d.ds, sc, base)
			if len(ref.Patterns) == 0 {
				t.Fatal("reference search found nothing")
			}
			for _, par := range pars {
				for _, noPrune := range []bool{false, true} {
					p := base
					p.Parallelism = par
					p.NoPrune = noPrune
					got := Beam(d.ds, sc, p)
					if len(got.Patterns) != len(ref.Patterns) {
						t.Fatalf("par=%d noPrune=%v: %d patterns, want %d",
							par, noPrune, len(got.Patterns), len(ref.Patterns))
					}
					for i := range got.Patterns {
						if !foundEqual(got.Patterns[i], ref.Patterns[i]) {
							t.Fatalf("par=%d noPrune=%v: pattern %d differs: SI %.17g vs %.17g",
								par, noPrune, i, got.Patterns[i].SI, ref.Patterns[i].SI)
						}
					}
				}
			}
			// The pruned runs must actually prune somewhere, or this test
			// proves nothing: check the serial pruned run's counters.
			p := base
			p.NoPrune = false
			if res := Beam(d.ds, sc, p); res.Pruned == 0 {
				t.Logf("warning: no candidates pruned on %s (bounds too loose to bite here)", d.name)
			}
		})
	}
}
