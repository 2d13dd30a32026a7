package search

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/background"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/si"
	"repro/internal/stats"
)

// TestBeamTopOneInvariant pins the property a one-entry result log
// relies on: a beam search's best pattern and its Evaluated count do
// not depend on TopK. The beam is the BeamWidth prefix of a
// max(BeamWidth, TopK) selection, which holds each level's best; a
// smaller log only raises the final level's seeded pruning floor, and
// bound pruning is admissible. Covers synthetic, crime (d=1) and water
// (d=16) at depths 1–4 and Parallelism 1 and 4, on a fresh model and
// after two commits of the search's own top pattern.
func TestBeamTopOneInvariant(t *testing.T) {
	for _, c := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"synthetic", gen.Synthetic620(gen.SeedSynthetic).DS},
		{"crime", gen.CrimeLike(1).DS},
		{"water", gen.WaterQualityLike(1).DS},
	} {
		m, err := background.New(c.ds.N(), stats.MeanVec(c.ds.Y, nil), stats.CovMat(c.ds.Y, nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, commits := range []int{0, 2} {
			for m.NumConstraints() < commits {
				top := Beam(c.ds, locationScorer(t, m, c.ds), Params{MaxDepth: 2}).Top()
				if err := m.CommitLocation(top.Extension, top.Mean); err != nil {
					t.Fatal(err)
				}
			}
			sc := locationScorer(t, m, c.ds)
			for depth := 1; depth <= 4; depth++ {
				for _, par := range []int{1, 4} {
					tag := fmt.Sprintf("%s commits=%d depth=%d par=%d", c.name, commits, depth, par)
					p := Params{MaxDepth: depth, Parallelism: par}
					want := Beam(c.ds, sc, p)
					p.TopK = 1
					got := Beam(c.ds, sc, p)
					if want.Top() == nil || len(got.Patterns) != 1 {
						t.Fatalf("%s: %d patterns with TopK 1, %d with the default", tag, len(got.Patterns), len(want.Patterns))
					}
					if !foundEqual(*got.Top(), *want.Top()) {
						t.Fatalf("%s: top pattern %s (SI %x) with TopK 1, %s (SI %x) with the default",
							tag, got.Top().Intention.Key(), math.Float64bits(got.Top().SI),
							want.Top().Intention.Key(), math.Float64bits(want.Top().SI))
					}
					if got.Evaluated != want.Evaluated || got.Levels != want.Levels {
						t.Fatalf("%s: evaluated %d at %d levels with TopK 1, %d at %d with the default",
							tag, got.Evaluated, got.Levels, want.Evaluated, want.Levels)
					}
				}
			}
		}
	}
}

// locationScorer scores against m's published version.
func locationScorer(t *testing.T, m *background.Model, ds *dataset.Dataset) *si.LocationScorer {
	t.Helper()
	sc, err := si.NewLocationScorer(m.Snapshot(), ds.Y, si.Default())
	if err != nil {
		t.Fatal(err)
	}
	return sc
}
