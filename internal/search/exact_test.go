package search

import (
	"testing"

	"repro/internal/background"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mat"
	"repro/internal/pattern"
	"repro/internal/si"
	"repro/internal/stats"
)

// crimeCommitted returns the crime replica and an SI scorer over its
// empirical prior after location commits on two condition extensions:
// the model has several groups and still a shared Σ, so the bound is
// active.
func crimeCommitted(t *testing.T) (*dataset.Dataset, *si.LocationScorer) {
	t.Helper()
	ds := gen.CrimeLike(gen.SeedCrime).DS
	m, err := background.New(ds.N(), stats.MeanVec(ds.Y, nil), stats.CovMat(ds.Y, nil))
	if err != nil {
		t.Fatal(err)
	}
	lang := engine.LanguageFor(ds, 4)
	for _, c := range []int{17, 300} {
		ext := lang.Exts[c]
		if err := m.CommitLocation(ext, pattern.SubgroupMean(ds.Y, ext)); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := si.NewLocationScorer(m, ds.Y, si.Default())
	if err != nil {
		t.Fatal(err)
	}
	return ds, sc
}

// spreadCommitted returns an SI scorer over a d=2 model after a
// location and a spread commit on the same subgroup: the spread refit
// gives that group its own Σ, so the scorer offers no bound.
func spreadCommitted(t *testing.T, ds *dataset.Dataset) *si.LocationScorer {
	t.Helper()
	m, err := background.New(ds.N(), make(mat.Vec, 2), mat.Eye(2))
	if err != nil {
		t.Fatal(err)
	}
	ext := engine.LanguageFor(ds, 4).Exts[0]
	mean := pattern.SubgroupMean(ds.Y, ext)
	if err := m.CommitLocation(ext, mean); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitSpread(ext, mat.Vec{1, 0}, mean, 0.5); err != nil {
		t.Fatal(err)
	}
	sc, err := si.NewLocationScorer(m, ds.Y, si.Default())
	if err != nil {
		t.Fatal(err)
	}
	if sc.NewBoundWorker() != nil {
		t.Fatal("a model with per-group Σ must offer no bound")
	}
	return sc
}

// TestExhaustivePrunedMatchesUnpruned: pruning changes how much of the
// language the exact search walks, never the log it returns. The first
// two cases must actually prune; the spread-committed model has no
// bound, so its walk must be the unpruned one.
func TestExhaustivePrunedMatchesUnpruned(t *testing.T) {
	crime, crimeSc := crimeCommitted(t)
	multi := multiDS(300, 3, 21)
	spread := multiDS(200, 2, 22)
	cases := []struct {
		name   string
		ds     *dataset.Dataset
		sc     engine.Scorer
		p      Params
		bounds bool
	}{
		{"crime-2-commits", crime, crimeSc, Params{MaxDepth: 2, NumSplits: 1, TopK: 5}, true},
		{"shared-sigma-d3", multi, locationScorerFor(t, multi, 2), Params{MaxDepth: 3, TopK: 5}, true},
		{"spread-commit", spread, spreadCommitted(t, spread), Params{MaxDepth: 3, TopK: 5}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			unpruned := tc.p
			unpruned.NoPrune = true
			want := Exhaustive(tc.ds, tc.sc, unpruned)
			got := Exhaustive(tc.ds, tc.sc, tc.p)
			if len(want.Patterns) != tc.p.TopK {
				t.Fatalf("unpruned log holds %d patterns, want %d", len(want.Patterns), tc.p.TopK)
			}
			if len(got.Patterns) != len(want.Patterns) {
				t.Fatalf("%d patterns, want %d", len(got.Patterns), len(want.Patterns))
			}
			for i := range got.Patterns {
				if !foundEqual(got.Patterns[i], want.Patterns[i]) {
					t.Fatalf("pattern %d differs: SI %.17g %v vs %.17g %v", i,
						got.Patterns[i].SI, got.Patterns[i].Intention.Format(tc.ds),
						want.Patterns[i].SI, want.Patterns[i].Intention.Format(tc.ds))
				}
			}
			if want.Pruned != 0 || want.BoundEvals != 0 {
				t.Fatalf("NoPrune walk bounded %d nodes and pruned %d", want.BoundEvals, want.Pruned)
			}
			if !tc.bounds {
				if got.Pruned != 0 || got.BoundEvals != 0 || got.Evaluated != want.Evaluated {
					t.Fatalf("no bound, yet %d bounded, %d pruned, %d of %d nodes",
						got.BoundEvals, got.Pruned, got.Evaluated, want.Evaluated)
				}
				return
			}
			if got.Pruned == 0 || got.Evaluated >= want.Evaluated {
				t.Fatalf("the bound cut nothing: %d pruned, %d of %d nodes",
					got.Pruned, got.Evaluated, want.Evaluated)
			}
			t.Logf("%d of %d nodes, %d subtrees pruned", got.Evaluated, want.Evaluated, got.Pruned)
		})
	}
}
