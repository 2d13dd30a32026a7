package background

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/mat"
)

// versionHash hashes everything a commit must never write through a
// published version: every group's µ and Σ bits, the factor caches
// present right now (and which groups have none), and the labels.
func versionHash(v *ModelVersion) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	floats := func(fs []float64) {
		for _, f := range fs {
			put(math.Float64bits(f))
		}
	}
	for _, g := range v.Groups() {
		floats(g.Mu)
		floats(g.Sigma.Data)
		if c := g.chol.Load(); c != nil {
			put(1)
			floats(c.L)
		} else {
			put(0)
		}
	}
	for _, l := range v.Labels() {
		put(uint64(l))
	}
	return h.Sum64()
}

// versionRecorder hashes each version as it is published, and checks
// later that no commit changed any of them and that every group's
// lazily filled factor is bit-identical to a fresh factorization.
type versionRecorder struct {
	versions []*ModelVersion
	hashes   []uint64
}

func (r *versionRecorder) record(v *ModelVersion) {
	r.versions = append(r.versions, v)
	r.hashes = append(r.hashes, versionHash(v))
}

func (r *versionRecorder) check(t *testing.T, tag string) {
	t.Helper()
	spreadEmptied := false
	for k, v := range r.versions {
		if got := versionHash(v); got != r.hashes[k] {
			t.Fatalf("%s: version %d changed after later commits", tag, v.Version())
		}
		var prev *ModelVersion
		if k > 0 {
			prev = r.versions[k-1]
		}
		for gi, g := range v.Groups() {
			if g.chol.Load() == nil && prev != nil && !holdsSigma(prev, g.Sigma) {
				spreadEmptied = true
			}
			got, err := g.Chol()
			if err != nil {
				t.Fatalf("%s: version %d group %d: %v", tag, v.Version(), gi, err)
			}
			want, err := mat.NewCholesky(g.Sigma)
			if err != nil {
				t.Fatal(err)
			}
			if got.N != want.N || !slices.Equal(got.L, want.L) {
				t.Fatalf("%s: version %d group %d: cached factor differs from a fresh one", tag, v.Version(), gi)
			}
		}
	}
	if !spreadEmptied {
		t.Fatalf("%s: no version published a spread-updated Σ with an empty factor cache", tag)
	}
}

// holdsSigma reports whether a group of v holds sigma by pointer.
func holdsSigma(v *ModelVersion, sigma *mat.Dense) bool {
	for _, g := range v.Groups() {
		if g.Sigma == sigma {
			return true
		}
	}
	return false
}

// A refit allocates no factorization: a spread-updated Σ is published
// with an empty cache, and a reader's lazy fill is bit-identical to
// the per-update factor the refit used to store. No later commit
// writes through an earlier version's Σ, labels or filled caches.
func TestFactorCachesAcrossCommits(t *testing.T) {
	t.Run("water", func(t *testing.T) {
		var r versionRecorder
		waterModelEach(t, r.record)
		r.check(t, "water")
	})
	t.Run("overlapSpread", func(t *testing.T) {
		base, sp := newOverlapSpread(t, 100, 3)
		m := base.Clone()
		var r versionRecorder
		r.record(m.Snapshot())
		if err := sp.commit(m); err != nil {
			t.Fatal(err)
		}
		r.record(m.Snapshot())
		// A second spread on the same extension updates the matrices
		// the first one published.
		commitSpreadScaled(t, m, sp.ext, unit(3, 1), sp.center, 1.4)
		r.record(m.Snapshot())
		// A refining location commit inside the extension: its inside
		// groups share a spread-updated Σ with an empty cache, so the
		// shared-Σ path factors it in scratch and leaves the cache empty.
		m.Tol = 1e-8
		ext := bitset.FromIndices(100, seq(20, 30))
		yhat, _, err := m.SubgroupMeanMarginal(ext)
		if err != nil {
			t.Fatal(err)
		}
		yhat[0] += 0.1
		if err := m.CommitLocation(ext, yhat); err != nil {
			t.Fatal(err)
		}
		requireEmptyCaches(t, m, ext)
		r.record(m.Snapshot())
		r.check(t, "overlapSpread")
	})
	t.Run("locationAfterSpread", func(t *testing.T) {
		// A location shift orthogonal to the spread direction leaves
		// the spread constraint satisfied, so no spread update empties
		// a cache the location refit might have filled.
		m := newModel(t, 60, 2)
		var r versionRecorder
		r.record(m.Snapshot())
		ext := bitset.FromIndices(60, seq(0, 40))
		if err := m.CommitLocation(ext, mat.Vec{0.5, 0}); err != nil {
			t.Fatal(err)
		}
		r.record(m.Snapshot())
		commitSpreadScaled(t, m, ext, unit(2, 0), mat.Vec{0.5, 0}, 0.5)
		r.record(m.Snapshot())
		sub := bitset.FromIndices(60, seq(10, 20))
		if err := m.CommitLocation(sub, mat.Vec{0.5, 0.3}); err != nil {
			t.Fatal(err)
		}
		requireEmptyCaches(t, m, ext)
		r.record(m.Snapshot())
		r.check(t, "locationAfterSpread")
	})
}

// requireEmptyCaches fails if a group meeting ext has a factor cache:
// such groups hold spread-updated covariances, and only a reader may
// fill their caches.
func requireEmptyCaches(t *testing.T, m *Model, ext *bitset.Set) {
	t.Helper()
	for gi, g := range m.Groups() {
		if g.Members.IntersectCount(ext) > 0 && g.chol.Load() != nil {
			t.Fatalf("group %d: the refit filled a factor cache", gi)
		}
	}
}

// A spread update that leaves Σ numerically singular still fails with
// ErrInfeasible, now from the scratch factorization, and the model is
// rolled back unchanged.
func TestSpreadSingularCovarianceRollsBack(t *testing.T) {
	m := newModel(t, 40, 2)
	v := m.Snapshot()
	f := freeze(t, v)
	// With µ = center the multiplier solves 1/(1+λ) = 1e-17, so the
	// updated Σ[0][0] = 1 − λ/(1+λ) rounds to zero.
	err := m.CommitSpread(bitset.FromIndices(40, seq(0, 20)), unit(2, 0), mat.Vec{0, 0}, 1e-17)
	requireRolledBack(t, "singular spread", m, v, f, err, ErrInfeasible)
	if !strings.Contains(err.Error(), "numerically singular") {
		t.Fatalf("got %v, want the singular-covariance failure", err)
	}
	if m.NumConstraints() != 0 {
		t.Fatalf("failed commit left %d constraints", m.NumConstraints())
	}
}

// Readers of a published spread version race to fill its empty factor
// caches while the writer commits further spreads that rewrite their
// own matrices in place. Run under -race this pins that the writer
// never touches a published cache; every reader sees the same bits.
func TestConcurrentCholFillUnderSpreadCommits(t *testing.T) {
	base, sp := newOverlapSpread(t, 100, 3)
	m := base.Clone()
	if err := sp.commit(m); err != nil {
		t.Fatal(err)
	}
	v := m.Snapshot()
	var want [][]float64
	empty := 0
	for _, g := range v.Groups() {
		if g.chol.Load() == nil {
			empty++
		}
		c, err := mat.NewCholesky(g.Sigma)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, c.L)
	}
	if empty == 0 {
		t.Fatal("the spread commit published no empty factor cache")
	}
	var ref bytes.Buffer
	if err := v.SaveJSON(&ref); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for round := 0; round < 20; round++ {
				for gi, g := range v.Groups() {
					c, err := g.Chol()
					if err != nil || !slices.Equal(c.L, want[gi]) {
						t.Errorf("group %d: factor differs (err %v)", gi, err)
						return
					}
				}
				if _, _, err := v.DistinctSigmaChols(); err != nil {
					t.Errorf("DistinctSigmaChols: %v", err)
					return
				}
			}
		}()
	}
	close(start)
	sweeps := 0
	for i := 0; i < 3; i++ {
		commitSpreadScaled(t, m, sp.ext, unit(3, i), sp.center, 0.6+0.4*float64(i))
		sweeps = max(sweeps, m.LastSweeps)
	}
	wg.Wait()
	if sweeps < 2 {
		t.Fatalf("spread commits took %d sweeps; the test needs in-place rewrites", sweeps)
	}
	var after bytes.Buffer
	if err := v.SaveJSON(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), ref.Bytes()) {
		t.Fatal("pinned version's serialization changed")
	}
	for gi, g := range v.Groups() {
		if c := g.chol.Load(); c == nil || !slices.Equal(c.L, want[gi]) {
			t.Fatalf("group %d: filled factor differs", gi)
		}
	}
}

// labelsOf rebuilds the dense labeling from a partition.
func labelsOf(n int, groups []*Group) []int32 {
	out := make([]int32, n)
	for gi, g := range groups {
		for _, i := range g.Members.Indices() {
			out[i] = int32(gi)
		}
	}
	return out
}

// Labels are immutable once built: a commit that divides no group
// publishes the previous slice itself, a refining commit builds a new
// one and leaves the previous version's bytes alone, and rollback and
// Adopt keep Labels consistent with Groups.
func TestLabelsInvariant(t *testing.T) {
	const n = 100
	m := newModel(t, n, 2)
	requireLabels := func(tag string) {
		t.Helper()
		if !slices.Equal(m.Labels(), labelsOf(n, m.Groups())) {
			t.Fatalf("%s: Labels() disagrees with Groups()", tag)
		}
		if v := m.Snapshot(); &v.Labels()[0] != &m.Labels()[0] {
			t.Fatalf("%s: the published version holds other labels than the model", tag)
		}
	}
	same := func(a, b []int32) bool { return &a[0] == &b[0] }

	// A refining location commit.
	v0 := m.Snapshot()
	old := slices.Clone(v0.Labels())
	ext := bitset.FromIndices(n, seq(10, 40))
	yhat := mat.Vec{1, -0.5}
	if err := m.CommitLocation(ext, yhat); err != nil {
		t.Fatal(err)
	}
	requireLabels("refining location")
	if same(m.Labels(), v0.Labels()) || !slices.Equal(v0.Labels(), old) {
		t.Fatal("refining commit wrote into the previous version's labels")
	}

	// A spread commit on the same extension divides nothing.
	v1 := m.Snapshot()
	commitSpreadScaled(t, m, ext, unit(2, 0), yhat, 0.5)
	requireLabels("spread")
	if !same(m.Labels(), v1.Labels()) {
		t.Fatal("non-refining spread commit published a new labels slice")
	}

	// A refining commit that fails rolls back to the same slice.
	v2 := m.Snapshot()
	old = slices.Clone(v2.Labels())
	m.Deadline = time.Now().Add(-time.Second)
	err := m.CommitLocation(bitset.FromIndices(n, seq(30, 70)), mat.Vec{0, 2})
	m.Deadline = time.Time{}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	requireLabels("rollback")
	if !same(m.Labels(), v2.Labels()) || !slices.Equal(v2.Labels(), old) {
		t.Fatal("rolled-back commit changed the labels")
	}

	// A refining commit on a fork, adopted by the model.
	fork := v2.Fork()
	if err := fork.CommitLocation(bitset.FromIndices(n, seq(60, 90)), mat.Vec{-1, 0}); err != nil {
		t.Fatal(err)
	}
	if !m.Adopt(fork) {
		t.Fatal("Adopt refused a one-location fork of the published version")
	}
	requireLabels("adopt")
	if same(m.Labels(), v2.Labels()) || !slices.Equal(v2.Labels(), old) {
		t.Fatal("adopted fork's commit wrote into the source version's labels")
	}
}
