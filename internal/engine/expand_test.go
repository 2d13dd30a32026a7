package engine_test

import (
	"testing"

	"repro/internal/background"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mat"
	"repro/internal/si"
)

// TestExpandMatchesDedupReferenceCrime drives the beam's levels on the
// crime replica (width 40, depth 4) over a fresh model and over models
// with one and two committed patterns, and requires Batch.Expand to
// build every level exactly as the dedup-table reference does.
func TestExpandMatchesDedupReferenceCrime(t *testing.T) {
	const width, maxDepth = 40, 4
	ds := gen.CrimeLike(gen.SeedCrime).DS
	lang := engine.LanguageFor(ds, 4)
	numConds := len(lang.Conds)
	m, err := background.New(ds.N(), make(mat.Vec, ds.Dy()), mat.Eye(ds.Dy()))
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for commits := 0; commits < 3; commits++ {
		sc, err := si.NewLocationScorer(m, ds.Y, si.Default())
		if err != nil {
			t.Fatal(err)
		}
		ev := engine.NewEvaluator(lang, sc, engine.Options{Parallelism: 1, SelectTop: 150})
		batch := ev.Batch()
		var root [1]engine.Scored
		batch.Expand(1, root[:], numConds)
		var best engine.Scored
		for depth := 1; depth < maxDepth; depth++ {
			level, _ := ev.EvaluateBatch(batch)
			beam := ev.Parents(width)
			for _, h := range level[:min(width, len(level))] {
				beam = append(beam, ev.Materialize(batch, h))
			}
			if depth == 1 {
				best = beam[0]
			}
			want := &engine.Batch{}
			engine.RefExpand(want, depth+1, beam, numConds)
			batch.Expand(depth+1, beam, numConds)
			if diff := engine.BatchDiff(want, batch); diff != "" {
				t.Fatalf("%d commits, level %d: %s", commits, depth+1, diff)
			}
			dropped += len(beam)*(numConds-depth) - want.Len()
		}
		ev.Release()
		if err := m.CommitLocation(best.Ext, best.Mean); err != nil {
			t.Fatal(err)
		}
	}
	if dropped == 0 {
		t.Fatal("no duplicate refinements arose; the comparison proves nothing")
	}
}
