package search

import (
	"testing"

	"repro/internal/background"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mat"
	"repro/internal/si"
)

// Ablation: parallel candidate evaluation versus serial, and the
// branch-and-bound optimal search versus blind exhaustive enumeration.

func benchScorerFor(b *testing.B, ds *dataset.Dataset) Scorer {
	b.Helper()
	m, err := background.New(ds.N(), make(mat.Vec, ds.Dy()), mat.Eye(ds.Dy()))
	if err != nil {
		b.Fatal(err)
	}
	sc, err := si.NewLocationScorer(m, ds.Y, si.Default())
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

func benchBeam(b *testing.B, parallelism int) {
	ds := plantedDS(2000, 1)
	sc := benchScorerFor(b, ds)
	p := Params{MaxDepth: 2, BeamWidth: 20, Parallelism: parallelism}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Beam(ds, sc, p).Top() == nil {
			b.Fatal("no result")
		}
	}
}

func BenchmarkBeamSerial(b *testing.B)   { benchBeam(b, 1) }
func BenchmarkBeamParallel(b *testing.B) { benchBeam(b, 0) } // GOMAXPROCS

// Ablation: admissible SI bound pruning on versus off, on the same
// search. The two runs return bit-identical patterns (see
// TestPrunedBeamBitIdentical); the difference is purely how many
// candidates pay a full scoring pass. The crime replica's 122 numeric
// descriptors yield ~970 conditions, so each beam parent's refinement
// run is long enough for the per-parent bound preparation to amortize
// (on few-condition datasets the engine skips bounding entirely).
// One untimed search first builds the cached Language and grows the
// arenas, so neither arm pays that cold work whichever runs first.
func benchBeamPrune(b *testing.B, noPrune bool) {
	ds := gen.CrimeLike(gen.SeedCrime).DS
	sc := benchScorerFor(b, ds)
	p := Params{MaxDepth: 2, BeamWidth: 10, Parallelism: 1, NoPrune: noPrune}
	Beam(ds, sc, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Beam(ds, sc, p).Top() == nil {
			b.Fatal("no result")
		}
	}
}

func BenchmarkBeamPruned(b *testing.B)  { benchBeamPrune(b, false) }
func BenchmarkBeamNoPrune(b *testing.B) { benchBeamPrune(b, true) }

func BenchmarkOptimalBranchAndBound(b *testing.B) {
	ds := plantedDS(500, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if OptimalLocation1D(ds, 0, 1, si.Default(), 3, 4, 2).Extension == nil {
			b.Fatal("no result")
		}
	}
}

func BenchmarkOptimalExhaustiveBaseline(b *testing.B) {
	ds := plantedDS(500, 8)
	sc := benchScorerFor(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Exhaustive(ds, sc, 3, 4, 2, 5).Top() == nil {
			b.Fatal("no result")
		}
	}
}
