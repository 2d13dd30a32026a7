// Benchmarks regenerating every table and figure of the paper's
// evaluation (§III). Each benchmark exercises exactly the workload of
// the corresponding experiment driver; `go test -bench=. -benchmem`
// reports how long one full regeneration takes. The structured results
// themselves are produced by cmd/experiments and pinned byte for byte
// by TestFiguresGolden (internal/experiments/testdata/golden/).
package sisd_test

import (
	"testing"

	sisd "repro"
	"repro/internal/experiments"
	"repro/internal/gen"
)

// BenchmarkFig1CrimeTopPattern regenerates Fig. 1: mine the top
// location pattern of the crime replica and compute the three KDE
// curves (full data, covered part, within-subgroup).
func BenchmarkFig1CrimeTopPattern(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1Crime(gen.SeedCrime, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2SyntheticIterations regenerates Fig. 2: three two-step
// mining iterations (location beam + spread gradient ascent + model
// updates) on the synthetic data.
func BenchmarkFig2SyntheticIterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2Synthetic(gen.SeedSynthetic); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableISyntheticSI regenerates Table I: track the SI of the
// top-10 first-iteration patterns across four iterations.
func BenchmarkTableISyntheticSI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableISynthetic(gen.SeedSynthetic); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3NoiseRobustness regenerates Fig. 3: the SI of the true
// descriptions under descriptor noise, with the random-subgroup
// baseline.
func BenchmarkFig3NoiseRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3Noise(gen.SeedSynthetic, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4to6MammalsIterations regenerates Figs. 4–6: three
// location-mining iterations on the mammals replica (124 binary
// targets), including the per-species explanations.
func BenchmarkFig4to6MammalsIterations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig456Mammals(gen.SeedMammals, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7and8SocioEconomics regenerates Figs. 7–8: three
// iterations of location + 2-sparse spread mining on the
// socio-economics replica.
func BenchmarkFig7and8SocioEconomics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig78SocioEconomics(gen.SeedSocio); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9and10WaterQuality regenerates Figs. 9–10: the top
// location pattern of the water replica plus its full-dimensional
// spread direction and CDF curves.
func BenchmarkFig9and10WaterQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig910Water(gen.SeedWater); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIIBackgroundUpdates regenerates (a fast slice of) Table
// II: the per-iteration cost of refitting the background distribution
// as committed patterns accumulate, on the three smaller datasets.
func BenchmarkTableIIBackgroundUpdates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIIRuntime(5, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIIBackgroundUpdatesMammals covers the Table II "Ma"
// column (dy=124), the paper's scalability pain point: location-pattern
// commits whose coordinate descent must factorize 124×124 covariances.
func BenchmarkTableIIBackgroundUpdatesMammals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIIRuntime(5, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineLocationCrime measures one full beam search on the
// largest-descriptor dataset (122 numeric attributes, n=1994).
func BenchmarkMineLocationCrime(b *testing.B) {
	ds := sisd.GenerateCrimeLike(gen.SeedCrime)
	m, err := sisd.NewMiner(ds, sisd.Config{
		Search: sisd.SearchParams{MaxDepth: 2, BeamWidth: 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.MineLocation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineLocationCrimeManyGroups measures the same beam search
// after 32 committed location patterns have fragmented the background
// model into many parameter groups — the interactive steady state the
// server is built for. Before the sufficient-statistics refactor every
// candidate paid one AND-popcount bitset pass per group, so this
// benchmark scaled with the commit count; the fused label-pass kernel
// makes it scale only with n.
func BenchmarkMineLocationCrimeManyGroups(b *testing.B) {
	ds := sisd.GenerateCrimeLike(gen.SeedCrime)
	m, err := sisd.NewMiner(ds, sisd.Config{
		Search: sisd.SearchParams{MaxDepth: 2, BeamWidth: 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < 32; c++ {
		in := sisd.Intention{{Attr: c, Op: sisd.LE, Threshold: 0.3}}
		loc, err := m.ScoreLocationIntention(in)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.CommitLocation(loc); err != nil {
			b.Fatal(err)
		}
	}
	if m.Model.NumGroups() < 32 {
		b.Fatalf("expected a many-groups model, got %d groups", m.Model.NumGroups())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.MineLocation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitLocationMammals measures a single location-pattern
// commit at the paper's highest target dimensionality (dy=124).
func BenchmarkCommitLocationMammals(b *testing.B) {
	ds := sisd.GenerateMammalsLike(gen.SeedMammals)
	in := sisd.Intention{{Attr: 0, Op: sisd.LE, Threshold: 0}}
	ext := in.Extension(ds)
	if ext.Count() == 0 {
		b.Fatal("empty benchmark extension")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := sisd.NewMiner(ds, sisd.Config{})
		if err != nil {
			b.Fatal(err)
		}
		loc, err := m.ScoreLocationIntention(in)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := m.CommitLocation(loc); err != nil {
			b.Fatal(err)
		}
	}
}
