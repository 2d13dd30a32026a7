package background

import (
	"fmt"
	"testing"

	"repro/internal/mat"
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
				ext := disjointExt(n, c, 64).Or(disjointExt(n, c+1, 64))
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
// (clone + commit) whose extension overlaps two committed spread
// patterns, so its refit re-applies three spread constraints over many
// sweeps. After the first sweep the refit rewrites the covariances it
// allocated in place, so allocs/op does not grow with the sweep count.
func BenchmarkRefitOverlappingSpread(b *testing.B) {
	base, sp := newOverlapSpread(b, 1024, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := base.Clone()
		if err := sp.commit(c); err != nil {
			b.Fatal(err)
		}
	}
}
