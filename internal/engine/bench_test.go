package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mat"
	"repro/internal/si"
)

// benchScorer builds an SI scorer over the synthetic dataset whose model
// carries `commits` committed location patterns — the many-groups regime
// that used to scale per-candidate cost with the group count — and
// returns it with the dataset's Language.
func benchScorer(b *testing.B, commits int) (*engine.Language, *si.LocationScorer) {
	b.Helper()
	ds := gen.Synthetic620(gen.SeedSynthetic).DS
	m, err := background.New(ds.N(), make(mat.Vec, ds.Dy()), mat.Eye(ds.Dy()))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	target := make(mat.Vec, ds.Dy())
	for c := 0; c < commits; c++ {
		ext := bitset.New(ds.N())
		lo := rng.Intn(ds.N() - 60)
		for i := lo; i < lo+40+rng.Intn(60) && i < ds.N(); i++ {
			ext.Add(i)
		}
		target[0] = 0.05 * float64(c%3)
		if err := m.CommitLocation(ext, target); err != nil {
			b.Fatal(err)
		}
	}
	sc, err := si.NewLocationScorer(m, ds.Y, si.Default())
	if err != nil {
		b.Fatal(err)
	}
	return engine.LanguageFor(ds, 4), sc
}

// benchEvaluator builds an evaluator over benchScorer's language and
// scorer, with a level-2 batch.
func benchEvaluator(b *testing.B, commits int) (*engine.Evaluator, *engine.Batch) {
	b.Helper()
	lang, sc := benchScorer(b, commits)
	ev := engine.NewEvaluator(lang, sc, engine.Options{Parallelism: 1, MinSupport: 2})

	// A representative level-2 batch: every condition refining every
	// condition extension (capped), plus the level-1 nil-parent batch is
	// benchmarked separately.
	batch := &engine.Batch{}
	batch.Reset(2)
	for p := 0; p < len(lang.Conds) && p < 20; p++ {
		batch.StartParent(lang.Exts[p])
		for c := range lang.Conds {
			if c == p {
				continue
			}
			batch.Add(engine.CondID(c), []engine.CondID{engine.CondID(p)})
		}
	}
	return ev, batch
}

// BenchmarkEvaluateBatchDepth1ManyGroups measures a full level-1 batch
// (nil parents) against a 32-commit model on a warm evaluator: each
// candidate takes its group counts from its condition's extension and
// its target sum from the Language cache, so no target row is read.
// Per-mine set-up is outside the timed loop;
// BenchmarkEvaluateBatchDepth1ManyGroupsPerMine times it.
func BenchmarkEvaluateBatchDepth1ManyGroups(b *testing.B) {
	ev, _ := benchEvaluator(b, 32)
	lang := engine.LanguageFor(gen.Synthetic620(gen.SeedSynthetic).DS, 4)
	batch := &engine.Batch{}
	batch.Reset(1)
	batch.StartParent(nil)
	for i := range lang.Conds {
		batch.Add(engine.CondID(i), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, timedOut := ev.EvaluateBatch(batch); timedOut {
			b.Fatal("unexpected timeout")
		}
	}
}

// BenchmarkEvaluateBatchDepth1ManyGroupsPerMine is the level-1 batch as
// a mine pays for it against a 32-commit model: every iteration builds
// the evaluator, expands and scores level 1, and releases the evaluator,
// so per-mine set-up (worker scratch, any per-model table) is timed.
// One untimed cycle first pays the process's one-time allocations, so
// a single-iteration run reads the steady state a mine pays.
func BenchmarkEvaluateBatchDepth1ManyGroupsPerMine(b *testing.B) {
	lang, sc := benchScorer(b, 32)
	var root [1]engine.Scored
	mine := func() {
		ev := engine.NewEvaluator(lang, sc, engine.Options{Parallelism: 1, MinSupport: 2})
		batch := ev.Batch()
		batch.Expand(1, root[:], len(lang.Conds))
		if _, timedOut := ev.EvaluateBatch(batch); timedOut {
			b.Fatal("unexpected timeout")
		}
		ev.Release()
	}
	mine()
	b.ReportAllocs()
	for b.Loop() {
		mine()
	}
}

// BenchmarkEvaluateBatchDeepManyGroups measures a deep (level-2 style)
// batch against a 32-commit model: one fused AndCountInto + label-pass
// scoring per candidate, independent of the group count.
func BenchmarkEvaluateBatchDeepManyGroups(b *testing.B) {
	ev, batch := benchEvaluator(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, timedOut := ev.EvaluateBatch(batch); timedOut {
			b.Fatal("unexpected timeout")
		}
	}
}

// BenchmarkLanguageBuildCrime measures the cold work of a session on
// the crime replica: enumerating the condition language (split points
// of 122 numeric descriptors) and materializing every extension.
func BenchmarkLanguageBuildCrime(b *testing.B) {
	ds := gen.CrimeLike(gen.SeedCrime).DS
	b.ReportAllocs()
	for b.Loop() {
		engine.NewLanguage(ds, 4)
	}
}
