package background

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/mat"
)

// randomExt builds a random extension of size points.
func randomExt(rng *rand.Rand, n, size int) *bitset.Set {
	perm := rng.Perm(n)
	ext := bitset.New(n)
	for _, i := range perm[:size] {
		ext.Add(i)
	}
	return ext
}

// disjointExt returns the k-th of many disjoint contiguous blocks.
func disjointExt(n, k, block int) *bitset.Set {
	ext := bitset.New(n)
	for i := k * block; i < (k+1)*block && i < n; i++ {
		ext.Add(i)
	}
	return ext
}

// sameParams fails unless the two models have bit-identical group
// parameters (same partition, same µ and Σ float64s — exact equality,
// not tolerance) and the same LastSweeps.
func sameParams(t *testing.T, tag string, a, b *Model) {
	t.Helper()
	if a.NumGroups() != b.NumGroups() {
		t.Fatalf("%s: group count %d vs %d", tag, a.NumGroups(), b.NumGroups())
	}
	if a.LastSweeps != b.LastSweeps {
		t.Fatalf("%s: LastSweeps %d vs %d", tag, a.LastSweeps, b.LastSweeps)
	}
	for gi := range a.Groups() {
		ga, gb := a.Groups()[gi], b.Groups()[gi]
		if ga.Members.IntersectCount(gb.Members) != ga.Count || ga.Count != gb.Count {
			t.Fatalf("%s: group %d membership differs", tag, gi)
		}
		for j := range ga.Mu {
			if ga.Mu[j] != gb.Mu[j] {
				t.Fatalf("%s: group %d mu[%d] %v vs %v (diff %g)",
					tag, gi, j, ga.Mu[j], gb.Mu[j], ga.Mu[j]-gb.Mu[j])
			}
		}
		for j := range ga.Sigma.Data {
			if ga.Sigma.Data[j] != gb.Sigma.Data[j] {
				t.Fatalf("%s: group %d sigma[%d] %v vs %v",
					tag, gi, j, ga.Sigma.Data[j], gb.Sigma.Data[j])
			}
		}
	}
}

// sigmaSharing returns, per group, the index of the first group holding
// the same covariance matrix by pointer: the Σ pointer-sharing partition
// the pointer-keyed kernels (shared-Σ fast path, per-distinct-Σ spread
// dedup) and LoadJSONExact's re-sharing depend on.
func sigmaSharing(m *Model) []int {
	out := make([]int, m.NumGroups())
	for i, g := range m.Groups() {
		out[i] = i
		for j, h := range m.Groups()[:i] {
			if h.Sigma == g.Sigma {
				out[i] = j
				break
			}
		}
	}
	return out
}

// sameState fails unless the models match bit for bit (sameParams), in
// their SaveJSON bytes, and in their Σ pointer-sharing partition.
func sameState(t *testing.T, tag string, a, b *Model) {
	t.Helper()
	sameParams(t, tag, a, b)
	var ja, jb bytes.Buffer
	if err := a.SaveJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatalf("%s: SaveJSON bytes differ", tag)
	}
	if sa, sb := sigmaSharing(a), sigmaSharing(b); !slices.Equal(sa, sb) {
		t.Fatalf("%s: Σ sharing differs: %v vs %v", tag, sa, sb)
	}
}

// sameErr fails unless both commits failed with the same message or
// both succeeded.
func sameErr(t *testing.T, tag string, a, b error) {
	t.Helper()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("%s: commit divergence: %v vs %v", tag, a, b)
	}
}

// TestIncrementalRefitBitIdenticalToFullDescent is the correctness
// contract of the two refit shortcuts. Three models replay the same
// randomized commit sequence — location and spread, overlapping and
// disjoint extensions: the default (dirty-constraint skipping and
// in-place rewrites of refit-born covariances), one forced to re-apply
// every constraint every sweep (noSkip), and one forced to clone Σ on
// every spread update (cloneSpread). After every commit all three must
// fail with the same error or succeed, and match in group parameters,
// sweep counts, SaveJSON bytes and Σ pointer-sharing partition.
func TestIncrementalRefitBitIdenticalToFullDescent(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(60)
		d := 1 + rng.Intn(3)
		var models [3]*Model
		for i := range models {
			m, err := New(n, make(mat.Vec, d), mat.Eye(d))
			if err != nil {
				t.Fatal(err)
			}
			models[i] = m
		}
		fast, full, cloned := models[0], models[1], models[2]
		full.noSkip = true
		cloned.cloneSpread = true

		for step := 0; step < 6; step++ {
			var ext *bitset.Set
			if rng.Intn(2) == 0 {
				// Disjoint-ish block: the regime skipping is built for.
				ext = disjointExt(n, step, n/8)
			} else {
				ext = randomExt(rng, n, 3+rng.Intn(n/2))
			}
			if ext.Count() == 0 {
				continue
			}
			yhat := make(mat.Vec, d)
			for j := range yhat {
				yhat[j] = rng.NormFloat64()
			}
			tag := fmt.Sprintf("seed %d step %d location", seed, step)
			errA := fast.CommitLocation(ext, yhat)
			sameErr(t, tag, errA, full.CommitLocation(ext, yhat))
			sameErr(t, tag, errA, cloned.CommitLocation(ext, yhat))
			sameState(t, tag, fast, full)
			sameState(t, tag, fast, cloned)

			if errA == nil && rng.Intn(2) == 0 {
				w := make(mat.Vec, d)
				for j := range w {
					w[j] = rng.NormFloat64()
				}
				w.Normalize()
				v := 0.4 + rng.Float64()
				tag := fmt.Sprintf("seed %d step %d spread", seed, step)
				errA = fast.CommitSpread(ext, w, yhat, v)
				sameErr(t, tag, errA, full.CommitSpread(ext, w, yhat, v))
				sameErr(t, tag, errA, cloned.CommitSpread(ext, w, yhat, v))
				sameState(t, tag, fast, full)
				sameState(t, tag, fast, cloned)
			}
		}
	}
}

// overlapSpread is a spread commit straddling both patterns of
// commitOverlappingSpreads(…, 10, 0): its refit re-applies all three
// spread constraints over many sweeps, so after the first sweep it
// updates only covariances it allocated itself.
type overlapSpread struct {
	ext       *bitset.Set
	w, center mat.Vec
	value     float64
}

func (sp overlapSpread) commit(m *Model) error {
	return m.CommitSpread(sp.ext, sp.w, sp.center, sp.value)
}

// newOverlapSpread builds the base model (converged at Tol 1e-12, so
// its constraints stay clean at any Tol used here) and the spread
// commit to replay on clones of it.
func newOverlapSpread(tb testing.TB, n, d int) (*Model, overlapSpread) {
	return newOverlapSpreadRounds(tb, n, d, 1)
}

// newOverlapSpreadRounds is newOverlapSpread over rounds calls of
// commitOverlappingSpreads on the same two extensions, each with its
// own spread directions: 4·rounds committed patterns, all overlapped
// by the returned spread commit.
func newOverlapSpreadRounds(tb testing.TB, n, d, rounds int) (*Model, overlapSpread) {
	tb.Helper()
	m, err := New(n, make(mat.Vec, d), mat.Eye(d))
	if err != nil {
		tb.Fatal(err)
	}
	m.Tol = 1e-12
	for round := 0; round < rounds; round++ {
		commitOverlappingSpreads(tb, m, 10, round)
	}
	sp := overlapSpread{ext: bitset.FromIndices(n, seq(15, 45)), w: make(mat.Vec, d)}
	for j := range sp.w {
		sp.w[j] = float64(j + 1)
	}
	sp.w.Normalize()
	if sp.center, _, err = m.SubgroupMeanMarginal(sp.ext); err != nil {
		tb.Fatal(err)
	}
	v, err := m.ExpectedSpread(sp.ext, sp.w, sp.center)
	if err != nil {
		tb.Fatal(err)
	}
	sp.value = 0.7 * v
	return m, sp
}

// TestSpreadCommitAllocsFlatInSweeps pins the allocation win of
// in-place covariance rewrites: a spread commit copies each covariance
// it updates once, when the refit first touches it, so its allocations
// do not grow with its sweep count. The copy-only reference
// (cloneSpread) copies Σ on every update, so its
// count does grow — which shows the test can fail.
func TestSpreadCommitAllocsFlatInSweeps(t *testing.T) {
	base, sp := newOverlapSpread(t, 100, 3)
	measure := func(tol float64, cloneSpread bool) (allocs float64, sweeps int) {
		allocs = testing.AllocsPerRun(5, func() {
			c := base.Clone()
			c.Tol, c.cloneSpread = tol, cloneSpread
			if err := sp.commit(c); err != nil {
				t.Fatal(err)
			}
			sweeps = c.LastSweeps
		})
		return allocs, sweeps
	}
	loose, looseSweeps := measure(1e-8, false)
	tight, tightSweeps := measure(1e-12, false)
	if tightSweeps <= looseSweeps {
		t.Fatalf("Tol 1e-12 took %d sweeps, Tol 1e-8 %d; the test needs more sweeps at the tighter Tol",
			tightSweeps, looseSweeps)
	}
	if tight != loose {
		t.Fatalf("spread commit allocated %v at %d sweeps, %v at %d sweeps; want equal",
			tight, tightSweeps, loose, looseSweeps)
	}
	refLoose, _ := measure(1e-8, true)
	refTight, _ := measure(1e-12, true)
	if refTight <= refLoose {
		t.Fatalf("copy-only reference allocated %v at Tol 1e-12 vs %v at 1e-8; want growth", refTight, refLoose)
	}
	t.Logf("allocs/commit: in place %v (%d and %d sweeps); copy-only %v and %v",
		loose, looseSweeps, tightSweeps, refLoose, refTight)
}

// requireRolledBack fails unless a failed commit left m exactly as it
// was: the same published version pointer, unchanged published bytes
// and factorizations, and live state serializing to the same bytes.
func requireRolledBack(t *testing.T, tag string, m *Model, v *ModelVersion, f frozen, err error, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("%s: got %v, want %v", tag, err, want)
	}
	if m.Snapshot() != v {
		t.Fatalf("%s: failed commit replaced the published version", tag)
	}
	requireFrozen(t, tag, v, f)
	var live bytes.Buffer
	if err := m.SaveJSON(&live); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), f.json) {
		t.Fatalf("%s: live model differs from its pre-commit state", tag)
	}
}

// TestRollbackAfterInPlaceRewrites: a spread commit whose refit has
// already rewritten the covariances it allocated, and then fails, rolls
// back to the exact pre-commit state, and a retry matches a model that
// never failed. Failing on MaxSweeps is deterministic; the deadline leg
// starts from an expired deadline and doubles the budget until the
// commit succeeds, so later attempts fail part-way through the refit.
func TestRollbackAfterInPlaceRewrites(t *testing.T) {
	base, sp := newOverlapSpread(t, 100, 3)
	ref := base.Clone()
	if err := sp.commit(ref); err != nil {
		t.Fatal(err)
	}
	if ref.LastSweeps < 3 {
		t.Fatalf("reference commit took %d sweeps; the test needs at least 3", ref.LastSweeps)
	}

	t.Run("MaxSweeps", func(t *testing.T) {
		// The failing refit does rewrite in place: it allocates less
		// than the copy-only reference failing at the same sweep.
		failAllocs := func(cloneSpread bool) float64 {
			return testing.AllocsPerRun(3, func() {
				c := base.Clone()
				c.MaxSweeps, c.cloneSpread = ref.LastSweeps-1, cloneSpread
				if err := sp.commit(c); !errors.Is(err, ErrInfeasible) {
					t.Fatalf("got %v, want ErrInfeasible", err)
				}
			})
		}
		if inPlace, copied := failAllocs(false), failAllocs(true); inPlace >= copied {
			t.Fatalf("failing refit allocated %v, copy-only %v: no in-place rewrite happened", inPlace, copied)
		}

		m := base.Clone()
		v := m.Snapshot()
		f := freeze(t, v)
		m.MaxSweeps = ref.LastSweeps - 1
		err := sp.commit(m)
		m.MaxSweeps = ref.MaxSweeps // SaveJSON records it
		requireRolledBack(t, "MaxSweeps", m, v, f, err, ErrInfeasible)
		if err := sp.commit(m); err != nil {
			t.Fatalf("retry: %v", err)
		}
		sameState(t, "retry after MaxSweeps", m, ref)
	})

	t.Run("Deadline", func(t *testing.T) {
		m := base.Clone()
		v := m.Snapshot()
		f := freeze(t, v)
		budget := -time.Second
		for {
			m.Deadline = time.Now().Add(budget)
			err := sp.commit(m)
			m.Deadline = time.Time{}
			if err == nil {
				break
			}
			requireRolledBack(t, fmt.Sprintf("budget %v", budget), m, v, f, err, ErrDeadline)
			budget = max(2*budget, time.Microsecond)
		}
		sameState(t, "retry after deadline", m, ref)
	})
}

// TestIncrementalRefitSkipsCleanConstraints pins the perf contract the
// dependency graph exists for: after k disjoint location commits, the
// next disjoint commit's descent must not re-apply the k untouched
// constraints. Observable via the scratch-free proxy: a full re-sweep of
// a converged model skips every constraint, so it performs zero
// allocations and zero version bumps.
func TestIncrementalRefitSkipsCleanConstraints(t *testing.T) {
	n, d := 512, 2
	m, err := New(n, make(mat.Vec, d), mat.Eye(d))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		if err := m.CommitLocation(disjointExt(n, k, 32), mat.Vec{float64(k), -1}); err != nil {
			t.Fatal(err)
		}
	}
	versions := make([]uint64, m.NumGroups())
	for i, g := range m.Groups() {
		versions[i] = g.version
	}
	if err := m.refit(); err != nil {
		t.Fatal(err)
	}
	if m.LastSweeps != 1 {
		t.Fatalf("converged model re-sweep took %d sweeps", m.LastSweeps)
	}
	for i, g := range m.Groups() {
		if g.version != versions[i] {
			t.Fatalf("re-sweep of a converged model mutated group %d", i)
		}
	}
}

// TestSatisfiedApplyZeroAlloc: the acceptance criterion that a
// steady-state apply of a satisfied constraint performs zero
// allocations, for both constraint kinds. noSkip forces the applies to
// actually run (otherwise the skip path — also alloc-free — would hide
// them).
func TestSatisfiedApplyZeroAlloc(t *testing.T) {
	n, d := 256, 3
	m, err := New(n, make(mat.Vec, d), mat.Eye(d))
	if err != nil {
		t.Fatal(err)
	}
	ext := disjointExt(n, 0, 64)
	yhat := mat.Vec{1, -2, 0.5}
	if err := m.CommitLocation(ext, yhat); err != nil {
		t.Fatal(err)
	}
	w := mat.Vec{1, 0, 0}
	if err := m.CommitSpread(ext, w, yhat, 0.5); err != nil {
		t.Fatal(err)
	}
	// Overlapping second location constraint exercises the general
	// (distinct-Σ) accumulation path of the satisfied check too.
	if err := m.CommitLocation(disjointExt(n, 1, 96), mat.Vec{0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	m.noSkip = true
	if err := m.refit(); err != nil { // warm all scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := m.refit(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("satisfied-constraint refit allocated %v per run, want 0", allocs)
	}
}

// TestRefitDeadline: an expired Model.Deadline fails the commit with
// ErrDeadline and rolls back atomically; clearing the deadline restores
// normal operation.
func TestRefitDeadline(t *testing.T) {
	n, d := 128, 2
	m, err := New(n, make(mat.Vec, d), mat.Eye(d))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CommitLocation(disjointExt(n, 0, 32), mat.Vec{1, 1}); err != nil {
		t.Fatal(err)
	}
	muBefore := m.PointMean(0)

	m.Deadline = time.Now().Add(-time.Second)
	err = m.CommitLocation(disjointExt(n, 1, 32), mat.Vec{2, 2})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired deadline: got %v, want ErrDeadline", err)
	}
	if m.NumConstraints() != 1 {
		t.Fatalf("deadline failure left %d constraints, want 1", m.NumConstraints())
	}
	if m.PointMean(0).Sub(muBefore).Norm() != 0 {
		t.Fatal("deadline failure mutated the model")
	}

	m.Deadline = time.Time{}
	if err := m.CommitLocation(disjointExt(n, 1, 32), mat.Vec{2, 2}); err != nil {
		t.Fatalf("commit after clearing deadline: %v", err)
	}
	if m.NumConstraints() != 2 {
		t.Fatalf("NumConstraints = %d, want 2", m.NumConstraints())
	}
}

// TestConcurrentCloneCommit exercises the version/stamp bookkeeping
// under the race detector: concurrent goroutines clone one base model
// and commit to their private clones while others read the base. Clones
// carry copied dependency caches, so any accidental sharing of mutable
// state would be flagged by -race (and by the final base-unchanged
// check).
func TestConcurrentCloneCommit(t *testing.T) {
	n, d := 256, 2
	base, err := New(n, make(mat.Vec, d), mat.Eye(d))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if err := base.CommitLocation(disjointExt(n, k, 32), mat.Vec{float64(k), 1}); err != nil {
			t.Fatal(err)
		}
	}
	muBefore := base.PointMean(0)

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := base.Clone()
			ext := disjointExt(n, 4+w%3, 40)
			if err := c.CommitLocation(ext, mat.Vec{float64(w), -float64(w)}); err != nil {
				errs[w] = err
				return
			}
			if c.NumConstraints() != 5 {
				errs[w] = errors.New("clone constraint count wrong")
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if base.NumConstraints() != 4 {
		t.Fatalf("base constraint count changed to %d", base.NumConstraints())
	}
	if base.PointMean(0).Sub(muBefore).Norm() != 0 {
		t.Fatal("clone commit mutated the base model")
	}
}
