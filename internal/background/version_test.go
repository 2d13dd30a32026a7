package background

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/mat"
)

// frozen is everything observable through a version that an in-place
// write could change: its serialization and every group's Cholesky
// factor.
type frozen struct {
	json  []byte
	chols [][]float64
}

func freeze(t *testing.T, v *ModelVersion) frozen {
	t.Helper()
	var buf bytes.Buffer
	if err := v.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	f := frozen{json: buf.Bytes()}
	for _, g := range v.Groups() {
		c, err := g.Chol()
		if err != nil {
			t.Fatal(err)
		}
		f.chols = append(f.chols, append([]float64(nil), c.L...))
	}
	return f
}

// requireFrozen fails unless v still matches the captured state.
func requireFrozen(t *testing.T, tag string, v *ModelVersion, want frozen) {
	t.Helper()
	got := freeze(t, v)
	if !bytes.Equal(got.json, want.json) {
		t.Fatalf("%s: version %d serialization changed", tag, v.Version())
	}
	for gi := range want.chols {
		if !slices.Equal(got.chols[gi], want.chols[gi]) {
			t.Fatalf("%s: version %d group %d Cholesky factor changed", tag, v.Version(), gi)
		}
	}
}

// commitOverlappingSpreads commits two overlapping location patterns on
// [lo, lo+30) and [lo+20, lo+50) and a spread pattern on each, along
// directions that depend on round, and returns the largest sweep count
// a spread commit took. The overlap makes every spread update move the
// other constraints, so the refits re-apply spread constraints over
// several sweeps — the regime where a refit rewrites the covariances
// it allocated in place. Repeating a round with the same lo re-commits
// satisfied location patterns and adds spread patterns along new
// directions, so its refits update covariances published earlier.
func commitOverlappingSpreads(t testing.TB, m *Model, lo, round int) (maxSweeps int) {
	t.Helper()
	d := m.D()
	a := bitset.FromIndices(m.N(), seq(lo, lo+30))
	b := bitset.FromIndices(m.N(), seq(lo+20, lo+50))
	ya, yb := make(mat.Vec, d), make(mat.Vec, d)
	wa, wb := make(mat.Vec, d), make(mat.Vec, d)
	for j := 0; j < d; j++ {
		ya[j], yb[j] = 1.5-float64(j), float64(j)-0.5
		wa[j] = 1
	}
	wa[round%d] = 2
	wb[(round+1)%d] = 1
	wb[round%d] -= 0.3
	wa.Normalize()
	wb.Normalize()
	if err := m.CommitLocation(a, ya); err != nil {
		t.Fatal(err)
	}
	if err := m.CommitLocation(b, yb); err != nil {
		t.Fatal(err)
	}
	for _, sp := range []struct {
		ext   *bitset.Set
		w, c  mat.Vec
		scale float64
	}{{a, wa, ya, 0.5}, {b, wb, yb, 1.8}} {
		commitSpreadScaled(t, m, sp.ext, sp.w, sp.c, sp.scale)
		maxSweeps = max(maxSweeps, m.LastSweeps)
	}
	return maxSweeps
}

// commitSpreadScaled commits a spread pattern whose variance is scale
// times the one the model currently expects.
func commitSpreadScaled(t testing.TB, m *Model, ext *bitset.Set, w, center mat.Vec, scale float64) {
	t.Helper()
	v, err := m.ExpectedSpread(ext, w, center)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CommitSpread(ext, w, center, scale*v); err != nil {
		t.Fatal(err)
	}
}

// A published version is frozen: commits that land after Snapshot must
// not change anything observable through it, and re-serializing it must
// yield the same bytes. Spread commits are included because they are
// the only commits that write covariances, and they take more than one
// sweep, so their refits rewrite the matrices they allocated in place.
func TestSnapshotImmutableUnderCommit(t *testing.T) {
	m := newModel(t, 100, 2)
	v1 := m.Snapshot()
	if v1 == nil || v1.Version() != 1 {
		t.Fatalf("fresh model publishes version 1, got %+v", v1)
	}
	f1 := freeze(t, v1)
	ext := bitset.FromIndices(100, seq(0, 30))
	if err := m.CommitLocation(ext, mat.Vec{2.5, -1}); err != nil {
		t.Fatalf("CommitLocation: %v", err)
	}
	v2 := m.Snapshot()
	if v2.Version() != v1.Version()+1 {
		t.Fatalf("commit published version %d, want %d", v2.Version(), v1.Version()+1)
	}
	if v1.NumConstraints() != 0 || v2.NumConstraints() != 1 {
		t.Fatalf("constraint counts: v1=%d v2=%d", v1.NumConstraints(), v2.NumConstraints())
	}
	requireFrozen(t, "after location commit", v1, f1)
	// The old version still answers with the prior belief state.
	muOld, _, err := v1.SubgroupMeanMarginal(ext)
	if err != nil {
		t.Fatal(err)
	}
	if muOld.Norm() > 1e-12 {
		t.Fatalf("old version sees the committed mean: %v", muOld)
	}
	muNew, _, err := v2.SubgroupMeanMarginal(ext)
	if err != nil {
		t.Fatal(err)
	}
	if muNew[0] < 2 {
		t.Fatalf("new version missed the commit: %v", muNew)
	}

	// Two rounds of overlapping spread commits: the second round's
	// refits update the matrices the first round published.
	f2 := freeze(t, v2)
	if sweeps := commitOverlappingSpreads(t, m, 10, 0); sweeps < 2 {
		t.Fatalf("spread commits took %d sweeps; the test needs more than one", sweeps)
	}
	v3 := m.Snapshot()
	f3 := freeze(t, v3)
	if sweeps := commitOverlappingSpreads(t, m, 10, 1); sweeps < 2 {
		t.Fatalf("second spread round took %d sweeps; the test needs more than one", sweeps)
	}
	requireFrozen(t, "after spread commits", v1, f1)
	requireFrozen(t, "after spread commits", v2, f2)
	requireFrozen(t, "after second spread round", v3, f3)

	// A spread commit on a fork (the server's preview) leaves the
	// source version, and the live model holding the same groups, as
	// they were.
	v4 := m.Snapshot()
	f4 := freeze(t, v4)
	var live bytes.Buffer
	if err := m.SaveJSON(&live); err != nil {
		t.Fatal(err)
	}
	fork := v4.Fork()
	if sweeps := commitOverlappingSpreads(t, fork, 45, 0); sweeps < 2 {
		t.Fatalf("fork spread commits took %d sweeps; the test needs more than one", sweeps)
	}
	requireFrozen(t, "after fork spread commits", v4, f4)
	var liveAfter bytes.Buffer
	if err := m.SaveJSON(&liveAfter); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), liveAfter.Bytes()) {
		t.Fatal("fork spread commits changed the source model")
	}
}

// A failed commit (deadline back-pressure) publishes nothing: the
// version stamp and the published snapshot are untouched.
func TestFailedCommitPublishesNothing(t *testing.T) {
	m := newModel(t, 80, 2)
	v1 := m.Snapshot()
	m.Deadline = time.Now().Add(-time.Second)
	err := m.CommitLocation(bitset.FromIndices(80, seq(0, 20)), mat.Vec{1, 1})
	if err == nil {
		t.Fatal("expired deadline should fail the commit")
	}
	m.Deadline = time.Time{}
	if got := m.Snapshot(); got != v1 {
		t.Fatalf("failed commit replaced the published version: %d -> %d",
			v1.Version(), got.Version())
	}
	// The model still works: the same commit succeeds without the
	// deadline, building on the rolled-back state.
	if err := m.CommitLocation(bitset.FromIndices(80, seq(0, 20)), mat.Vec{1, 1}); err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
	if got := m.Snapshot().Version(); got != v1.Version()+1 {
		t.Fatalf("version after rollback+retry = %d, want %d", got, v1.Version()+1)
	}
}

// Readers pinned to a version race a stream of commits; run under
// -race this pins the lock-free snapshot contract, and the value
// checks pin that reads through an old version stay byte-stable. The
// pinned version already holds spread-updated covariances, and the
// stream mixes overlapping spread commits in, so an in-place write to
// a published matrix or factorization shows as a race or a drift.
func TestConcurrentReadersUnderCommits(t *testing.T) {
	m := newModel(t, 200, 3)
	commitOverlappingSpreads(t, m, 150, 0)
	ext := bitset.FromIndices(200, seq(0, 50))
	w := unit(3, 0)
	v := m.Snapshot()
	refMu, _, err := v.SubgroupMeanMarginal(ext)
	if err != nil {
		t.Fatal(err)
	}
	refSpread, err := v.ExpectedSpread(ext, w, refMu)
	if err != nil {
		t.Fatal(err)
	}
	ref := freeze(t, v)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu, _, err := v.SubgroupMeanMarginal(ext)
				if err != nil {
					t.Errorf("SubgroupMeanMarginal: %v", err)
					return
				}
				for j := range mu {
					if mu[j] != refMu[j] {
						t.Errorf("pinned mean drifted: %v vs %v", mu, refMu)
						return
					}
				}
				sp, err := v.ExpectedSpread(ext, w, refMu)
				if err != nil || sp != refSpread {
					t.Errorf("pinned spread drifted: %v (err %v) vs %v", sp, err, refSpread)
					return
				}
				var buf bytes.Buffer
				if err := v.SaveJSON(&buf); err != nil || !bytes.Equal(buf.Bytes(), ref.json) {
					t.Errorf("pinned serialization drifted (err %v)", err)
					return
				}
				for gi, g := range v.Groups() {
					c, err := g.Chol()
					if err != nil || !slices.Equal(c.L, ref.chols[gi]) {
						t.Errorf("pinned group %d factorization drifted (err %v)", gi, err)
						return
					}
				}
			}
		}()
	}
	maxSweeps := 0
	for i := 0; i < 6; i++ {
		lo := (i * 25) % 150
		cext := bitset.FromIndices(200, seq(lo, lo+40))
		if err := m.CommitLocation(cext, mat.Vec{0.5, -0.5, 0.25}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		commitSpreadScaled(t, m, cext, unit(3, i%3), mat.Vec{0.5, -0.5, 0.25}, 0.6+0.5*float64(i%2))
		maxSweeps = max(maxSweeps, m.LastSweeps)
	}
	close(stop)
	wg.Wait()
	if maxSweeps < 2 {
		t.Fatalf("spread commits took %d sweeps; the test needs more than one", maxSweeps)
	}
	requireFrozen(t, "after commit stream", v, ref)
	if got := m.Snapshot().Version(); got != v.Version()+12 {
		t.Fatalf("version after 12 commits = %d, want %d", got, v.Version()+12)
	}
}

// A fork of a version replays a commit to the exact same state the
// live model reaches — the basis of the server's spread preview.
func TestForkCommitMatchesLive(t *testing.T) {
	live := newModel(t, 120, 2)
	seed := bitset.FromIndices(120, seq(0, 40))
	if err := live.CommitLocation(seed, mat.Vec{1, 0.5}); err != nil {
		t.Fatal(err)
	}
	v := live.Snapshot()
	fork := v.Fork()
	if fork.Version() != v.Version() {
		t.Fatalf("fork version %d, want %d", fork.Version(), v.Version())
	}

	next := bitset.FromIndices(120, seq(60, 90))
	target := mat.Vec{-0.75, 2}
	if err := fork.CommitLocation(next, target); err != nil {
		t.Fatalf("fork commit: %v", err)
	}
	if err := live.CommitLocation(next, target); err != nil {
		t.Fatalf("live commit: %v", err)
	}
	var fb, lb bytes.Buffer
	if err := fork.SaveJSON(&fb); err != nil {
		t.Fatal(err)
	}
	if err := live.SaveJSON(&lb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb.Bytes(), lb.Bytes()) {
		t.Fatal("fork and live models diverged after the same commit")
	}
	// The source version is untouched by the fork's commit.
	if v.NumConstraints() != 1 {
		t.Fatalf("fork commit leaked into the source version: %d constraints", v.NumConstraints())
	}
}
