package background

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/bitset"
	"repro/internal/gen"
	"repro/internal/mat"
	"repro/internal/stats"
)

// benchCommitModel builds a model with k committed location constraints
// whose extensions are disjoint 32-point blocks.
func benchCommitModel(b *testing.B, n, d, k int) *Model {
	b.Helper()
	m, err := New(n, make(mat.Vec, d), mat.Eye(d))
	if err != nil {
		b.Fatal(err)
	}
	yhat := make(mat.Vec, d)
	for j := range yhat {
		yhat[j] = 0.5
	}
	for c := 0; c < k; c++ {
		if err := m.CommitLocation(disjointExt(n, c, 32), yhat); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkRefitManyDisjointConstraints measures one what-if commit
// (clone + commit, the server's preview pattern) against a session that
// already holds k disjoint committed patterns. The dependency graph
// makes the new commit's descent skip every untouched constraint, so
// per-commit cost must stay roughly flat as k grows — before the
// incremental refit it grew linearly (every sweep re-applied all k
// constraints).
func BenchmarkRefitManyDisjointConstraints(b *testing.B) {
	const n, d = 8192, 8
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("commits=%d", k), func(b *testing.B) {
			m := benchCommitModel(b, n, d, k)
			freshExt := disjointExt(n, 200, 32) // disjoint from all committed blocks
			yhat := make(mat.Vec, d)
			yhat[0] = -1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := m.Clone()
				if err := c.CommitLocation(freshExt, yhat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRefitOverlappingConstraints measures a commit whose extension
// overlaps every previously committed pattern — the worst case for the
// dependency graph (everything is dirtied, nothing can be skipped after
// the first mutation), bounding the overhead of the bookkeeping itself.
func BenchmarkRefitOverlappingConstraints(b *testing.B) {
	const n, d = 8192, 8
	for _, k := range []int{4, 16} {
		b.Run(fmt.Sprintf("commits=%d", k), func(b *testing.B) {
			m, err := New(n, make(mat.Vec, d), mat.Eye(d))
			if err != nil {
				b.Fatal(err)
			}
			yhat := make(mat.Vec, d)
			yhat[0] = 0.5
			// Chained blocks: constraint c covers [64c, 64c+128).
			for c := 0; c < k; c++ {
				ext := disjointExt(n, c, 64)
				bitset.OrCountInto(ext, ext, disjointExt(n, c+1, 64))
				if err := m.CommitLocation(ext, yhat); err != nil {
					b.Fatal(err)
				}
			}
			// The benchmarked commit straddles the whole chain.
			wide := disjointExt(n, 0, 64*(k+1))
			target := make(mat.Vec, d)
			target[1] = -0.5
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := m.Clone()
				if err := c.CommitLocation(wide, target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResweepConverged measures one full sweep over a converged
// model — the pure skip path: k clean constraints, zero applies, zero
// allocations.
func BenchmarkResweepConverged(b *testing.B) {
	const n, d = 8192, 8
	m := benchCommitModel(b, n, d, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.refit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefitOverlappingSpread measures one what-if spread commit
// (clone + commit) whose extension overlaps every committed pattern of
// newOverlapSpreadRounds (two location and two spread commits per
// round), so its refit re-applies all their spread constraints over
// many sweeps. After the first sweep the refit rewrites the covariances
// it allocated in place and factors them only into per-model scratch,
// so allocs/op does not grow with the sweep count (sweeps/op).
func BenchmarkRefitOverlappingSpread(b *testing.B) {
	for _, rounds := range []int{1, 4} {
		b.Run(fmt.Sprintf("commits=%d", 4*rounds), func(b *testing.B) {
			base, sp := newOverlapSpreadRounds(b, 1024, 8, rounds)
			sweeps := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := base.Clone()
				if err := sp.commit(c); err != nil {
					b.Fatal(err)
				}
				sweeps = c.LastSweeps
			}
			b.ReportMetric(float64(sweeps), "sweeps/op")
		})
	}
}

// waterModel builds a d=16 model over the water replica's targets after
// six location+spread commits — the belief state a spread-water session
// snapshots. Commit k covers the records whose latent pollution falls
// in the k-th of six overlapping bands; its location is the band's mean
// and its spread the band's empirical variance along the direction
// from the prior mean to that mean.
func waterModel(tb testing.TB) *Model {
	return waterModelEach(tb, func(*ModelVersion) {})
}

// waterModelEach is waterModel that hands each version it publishes,
// the prior first, to each as soon as it is published.
func waterModelEach(tb testing.TB, each func(*ModelVersion)) *Model {
	tb.Helper()
	w := gen.WaterQualityLike(1)
	y := w.DS.Y
	prior := stats.MeanVec(y, nil)
	m, err := New(y.R, prior.Clone(), stats.CovMat(y, nil))
	if err != nil {
		tb.Fatal(err)
	}
	each(m.Snapshot())
	for k := 0; k < 6; k++ {
		lo, hi := 0.1*float64(k), 0.1*float64(k)+0.25
		var idx []int
		for i, p := range w.Pollution {
			if p >= lo && p < hi {
				idx = append(idx, i)
			}
		}
		ext := bitset.FromIndices(y.R, idx)
		yhat := stats.MeanVec(y, idx)
		if err := m.CommitLocation(ext, yhat); err != nil {
			tb.Fatalf("location commit %d: %v", k, err)
		}
		each(m.Snapshot())
		dir := yhat.Sub(prior)
		dir.Normalize()
		var v float64
		for _, i := range idx {
			p := y.Row(i).Sub(yhat).Dot(dir)
			v += p * p
		}
		if err := m.CommitSpread(ext, dir, yhat, v/float64(len(idx))); err != nil {
			tb.Fatalf("spread commit %d: %v", k, err)
		}
		each(m.Snapshot())
	}
	return m
}

// BenchmarkSaveJSONWater measures serializing a published water model
// version — the GET /model export of a spread-water session. One
// untimed call first lets encoding/json build and cache its encoders,
// so even a single timed iteration measures the steady state.
func BenchmarkSaveJSONWater(b *testing.B) {
	v := waterModel(b).Snapshot()
	if err := v.SaveJSON(io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.SaveJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
