package background

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/mat"
)

// TestRandomCommitSequencesKeepAllConstraints is the central property
// of the background model: ANY sequence of location and spread commits
// (overlapping or not) either succeeds — after which every committed
// expectation holds within tolerance — or fails atomically, leaving the
// constraint count unchanged. Either way every covariance stays SPD and
// the group partition stays consistent. (Heavily overlapping spread
// squeezes can be numerically infeasible; the model must refuse them
// cleanly rather than corrupt itself.)
func TestRandomCommitSequencesKeepAllConstraints(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(40)
		d := 1 + rng.Intn(3)
		m, err := New(n, make(mat.Vec, d), mat.Eye(d))
		if err != nil {
			return false
		}

		type locC struct {
			ext  *bitset.Set
			yhat mat.Vec
		}
		type sprC struct {
			ext  *bitset.Set
			w, c mat.Vec
			v    float64
		}
		var locs []locC
		var sprs []sprC

		for step := 0; step < 4; step++ {
			// Random extension of 5..n/2 points.
			size := 5 + rng.Intn(n/2)
			perm := rng.Perm(n)
			ext := bitset.New(n)
			for _, i := range perm[:size] {
				ext.Add(i)
			}
			if rng.Intn(2) == 0 || len(locs) == 0 {
				yhat := make(mat.Vec, d)
				for j := range yhat {
					yhat[j] = rng.NormFloat64() * 2
				}
				before := m.NumConstraints()
				if err := m.CommitLocation(ext, yhat); err != nil {
					if m.NumConstraints() != before {
						t.Logf("seed %d: failed location commit not rolled back", seed)
						return false
					}
					continue
				}
				locs = append(locs, locC{ext: ext, yhat: yhat})
			} else {
				// The documented two-step regime: pin the subgroup's
				// location first, then constrain the spread around that
				// committed mean.
				yhat := make(mat.Vec, d)
				for j := range yhat {
					yhat[j] = rng.NormFloat64() * 2
				}
				before := m.NumConstraints()
				if err := m.CommitLocation(ext, yhat); err != nil {
					if m.NumConstraints() != before {
						t.Logf("seed %d: failed location commit not rolled back", seed)
						return false
					}
					continue
				}
				locs = append(locs, locC{ext: ext, yhat: yhat})
				w := make(mat.Vec, d)
				for j := range w {
					w[j] = rng.NormFloat64()
				}
				w.Normalize()
				v := 0.3 + rng.Float64()*2
				before = m.NumConstraints()
				if err := m.CommitSpread(ext, w, yhat, v); err != nil {
					// Numerically infeasible squeeze: must fail atomically.
					if m.NumConstraints() != before {
						t.Logf("seed %d: failed spread commit not rolled back", seed)
						return false
					}
					continue
				}
				sprs = append(sprs, sprC{ext: ext, w: w, c: yhat, v: v})
			}
		}

		// All location constraints hold.
		for _, lc := range locs {
			mu, _, err := m.SubgroupMeanMarginal(lc.ext)
			if err != nil {
				return false
			}
			if mu.Sub(lc.yhat).Norm() > 1e-5*(1+lc.yhat.Norm()) {
				t.Logf("seed %d: location residual %v", seed, mu.Sub(lc.yhat).Norm())
				return false
			}
		}
		// All spread constraints hold.
		for _, sc := range sprs {
			got, err := m.ExpectedSpread(sc.ext, sc.w, sc.c)
			if err != nil {
				return false
			}
			if math.Abs(got-sc.v) > 1e-5*(1+sc.v) {
				t.Logf("seed %d: spread residual %v", seed, math.Abs(got-sc.v))
				return false
			}
		}
		// Group partition covers [0, n) exactly once and every Σ is SPD.
		seen := bitset.New(n)
		total := 0
		for _, g := range m.Groups() {
			if g.Members.IntersectCount(seen) != 0 {
				t.Logf("seed %d: overlapping groups", seed)
				return false
			}
			seen = seen.Or(g.Members)
			total += g.Count
			if _, err := mat.NewCholesky(g.Sigma); err != nil {
				t.Logf("seed %d: non-SPD group covariance", seed)
				return false
			}
		}
		return total == n && seen.Count() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCountBound: t commits create at most 2^t (and at least 1)
// groups, and group count never exceeds n.
func TestGroupCountBound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 64
	m, err := New(n, mat.Vec{0}, mat.Eye(1))
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 6; step++ {
		size := 1 + rng.Intn(n-1)
		perm := rng.Perm(n)
		ext := bitset.New(n)
		for _, i := range perm[:size] {
			ext.Add(i)
		}
		if err := m.CommitLocation(ext, mat.Vec{rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
		bound := 1 << step
		if bound > n {
			bound = n
		}
		if g := m.NumGroups(); g < 1 || g > bound {
			t.Fatalf("after %d commits: %d groups (bound %d)", step, g, bound)
		}
	}
}

// TestPathologicalSpreadCommitRollsBack: repeatedly demanding a tiny
// variance around a center far from the subgroup mean (violating the
// two-step protocol) eventually becomes numerically infeasible; the
// commit must then fail cleanly with ErrInfeasible and leave the model
// exactly as it was — the same published version, serializing to the
// same bytes — with all previously committed constraints intact.
func TestPathologicalSpreadCommitRollsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 40
	m, err := New(n, mat.Vec{0, 0}, mat.Eye(2))
	if err != nil {
		t.Fatal(err)
	}
	var lastGood int
	var failed bool
	for step := 0; step < 60; step++ {
		size := 5 + rng.Intn(n/2)
		perm := rng.Perm(n)
		ext := bitset.New(n)
		for _, i := range perm[:size] {
			ext.Add(i)
		}
		w := mat.Vec{rng.NormFloat64(), rng.NormFloat64()}
		w.Normalize()
		center := mat.Vec{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		before := m.NumConstraints()
		v := m.Snapshot()
		var vJSON bytes.Buffer
		if err := v.SaveJSON(&vJSON); err != nil {
			t.Fatal(err)
		}
		err := m.CommitSpread(ext, w, center, 0.01)
		if err != nil {
			failed = true
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("pathological commit failed with %v, want ErrInfeasible", err)
			}
			if m.NumConstraints() != before {
				t.Fatalf("failed commit left a constraint behind")
			}
			if m.Snapshot() != v {
				t.Fatal("failed commit replaced the published version")
			}
			for _, r := range []interface{ SaveJSON(io.Writer) error }{v, m} {
				var after bytes.Buffer
				if err := r.SaveJSON(&after); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(after.Bytes(), vJSON.Bytes()) {
					t.Fatalf("failed commit changed the model (%T)", r)
				}
			}
			break
		}
		lastGood = m.NumConstraints()
	}
	if !failed {
		t.Skip("could not provoke numeric infeasibility on this platform")
	}
	// The model is still healthy: groups SPD, constraints = lastGood.
	if m.NumConstraints() != lastGood {
		t.Fatalf("constraints = %d, want %d", m.NumConstraints(), lastGood)
	}
	for _, g := range m.Groups() {
		if _, err := mat.NewCholesky(g.Sigma); err != nil {
			t.Fatalf("rollback left non-SPD covariance: %v", err)
		}
	}
	// And it still accepts a sane commit.
	ext := bitset.FromIndices(n, []int{0, 1, 2, 3, 4})
	yhat := mat.Vec{1, 1}
	if err := m.CommitLocation(ext, yhat); err != nil {
		t.Fatalf("model unusable after rollback: %v", err)
	}
}

// TestCommitIdempotent: re-committing an already-satisfied constraint
// must not change the model parameters.
func TestCommitIdempotent(t *testing.T) {
	n := 40
	m, err := New(n, mat.Vec{0, 0}, mat.Eye(2))
	if err != nil {
		t.Fatal(err)
	}
	ext := bitset.FromIndices(n, []int{0, 1, 2, 3, 4, 5, 6, 7})
	yhat := mat.Vec{1.5, -0.5}
	if err := m.CommitLocation(ext, yhat); err != nil {
		t.Fatal(err)
	}
	before := m.PointMean(0)
	if err := m.CommitLocation(ext, yhat); err != nil {
		t.Fatal(err)
	}
	after := m.PointMean(0)
	if before.Sub(after).Norm() > 1e-9 {
		t.Fatalf("idempotent commit moved the mean: %v -> %v", before, after)
	}
}
