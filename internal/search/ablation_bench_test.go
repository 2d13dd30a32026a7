package search

import (
	"testing"

	"repro/internal/background"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mat"
	"repro/internal/si"
	"repro/internal/stats"
)

// Ablation: parallel candidate evaluation versus serial, and the
// branch-and-bound optimal search versus blind exhaustive enumeration.

func benchScorerFor(b *testing.B, ds *dataset.Dataset) *si.LocationScorer {
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

// BenchmarkBeamFreshScorerCrime is the server's mine shape: the paper's
// beam (40×4, top-150) at Parallelism 2 with a new LocationScorer every
// iteration, as every commit publishes a new model, alternating two
// crime replicas as sessions on different seeds do. The models and
// Languages are built, and the arenas grown, before the timer starts;
// B/op is then the per-mine cost of the scorer, its residuals and the
// survivors.
func BenchmarkBeamFreshScorerCrime(b *testing.B) {
	var sets [2]*dataset.Dataset
	var models [2]*background.Model
	for i := range sets {
		ds := gen.CrimeLike(gen.SeedCrime + int64(i)).DS
		m, err := background.New(ds.N(), make(mat.Vec, ds.Dy()), mat.Eye(ds.Dy()))
		if err != nil {
			b.Fatal(err)
		}
		sets[i], models[i] = ds, m
	}
	p := Params{BeamWidth: 40, MaxDepth: 4, TopK: 150, Parallelism: 2}
	mine := func(i int) *Results {
		sc, err := si.NewLocationScorer(models[i], sets[i].Y, si.Default())
		if err != nil {
			b.Fatal(err)
		}
		return Beam(sets[i], sc, p)
	}
	mine(0)
	mine(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mine(i%2).Top() == nil {
			b.Fatal("no result")
		}
	}
}

// The exact-search benchmarks run one untimed search first, which builds
// the cached Language, so even a one-iteration run times the search.
func BenchmarkOptimalBranchAndBound(b *testing.B) {
	ds := plantedDS(500, 8)
	mustOptimal(b, ds, 0, 1, si.Default(), 3, 4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mustOptimal(b, ds, 0, 1, si.Default(), 3, 4, 2).Extension == nil {
			b.Fatal("no result")
		}
	}
}

// BenchmarkOptimalExhaustiveBaseline times the unpruned walk the
// optimal search is compared against.
func BenchmarkOptimalExhaustiveBaseline(b *testing.B) {
	ds := plantedDS(500, 8)
	sc := benchScorerFor(b, ds)
	p := Params{MaxDepth: 3, NumSplits: 4, MinSupport: 2, TopK: 5, NoPrune: true}
	Exhaustive(ds, sc, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Exhaustive(ds, sc, p).Top() == nil {
			b.Fatal("no result")
		}
	}
}

// BenchmarkOptimalCrimeDepth2 is `sisd -builtin crime -optimal -depth
// 2`: the exact search on the crime replica's ~970 conditions, where
// the bound cuts all but 3 of the 976 depth-1 subtrees.
func BenchmarkOptimalCrimeDepth2(b *testing.B) {
	ds := gen.CrimeLike(gen.SeedCrime).DS
	y := ds.TargetColumn(0)
	mu, sigma2 := stats.Mean(y), stats.Variance(y)
	mustOptimal(b, ds, mu, sigma2, si.Default(), 2, 4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mustOptimal(b, ds, mu, sigma2, si.Default(), 2, 4, 2).Extension == nil {
			b.Fatal("no result")
		}
	}
}
