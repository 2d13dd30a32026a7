package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/faultstore"
	"repro/internal/repstore"
)

// TestMemStoreGetNoAliasing is the regression test for the History
// aliasing bug: Get returned a shallow copy whose History slice shared
// its backing array with the stored snapshot, so a caller mutating (or
// appending in place to) the returned history corrupted the store.
func TestMemStoreGetNoAliasing(t *testing.T) {
	st := NewMemStore()
	snap := &Snapshot{
		ID:         "s1",
		Iterations: 2,
		History: []PatternJSON{
			{Kind: "location", Intention: "a"},
			{Kind: "spread", Intention: "b"},
		},
	}
	if err := st.Put(snap); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("s1")
	if err != nil {
		t.Fatal(err)
	}
	got.History[0].Intention = "mutated"
	got.History = append(got.History[:1], PatternJSON{Kind: "location", Intention: "c"})

	again, err := st.Get("s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(again.History) != 2 || again.History[0].Intention != "a" || again.History[1].Intention != "b" {
		t.Fatalf("stored history corrupted through Get's return value: %+v", again.History)
	}
}

// memSnap builds a sealed snapshot at a given progress point.
func memSnap(id string, iterations, history int) *Snapshot {
	s := &Snapshot{
		ID:    id,
		Model: json.RawMessage(fmt.Sprintf(`{"v":%d}`, iterations)),
	}
	for i := 0; i < history; i++ {
		s.History = append(s.History, PatternJSON{Kind: "location", Intention: fmt.Sprintf("p%d", i)})
	}
	s.Iterations = iterations
	s.Seal()
	return s
}

// newReplicatedMem builds a Replicated[Snapshot] over faultstore-
// wrapped MemStores, mirroring NewReplicatedDirStore's config, so
// server-level tests can script per-replica outages.
func newReplicatedMem(t *testing.T, n, w int) (*repstore.Replicated[Snapshot], []*faultstore.Store[Snapshot], []*MemStore) {
	t.Helper()
	var members []repstore.Member[Snapshot]
	var fss []*faultstore.Store[Snapshot]
	var inners []*MemStore
	for i := 0; i < n; i++ {
		inner := NewMemStore()
		fs := faultstore.New[Snapshot](inner, faultstore.Plan{})
		inners = append(inners, inner)
		fss = append(fss, fs)
		members = append(members, repstore.Member[Snapshot]{ID: fmt.Sprintf("r%d", i), Store: fs})
	}
	rep, err := repstore.New(repstore.Config[Snapshot]{
		WriteQuorum: w,
		ID:          func(s *Snapshot) string { return s.ID },
		Progress:    (*Snapshot).ProgressKey,
		Verify:      (*Snapshot).Verify,
		NotFound:    ErrNotFound,
		Corrupt:     ErrCorrupt,
		BreakerBase: time.Millisecond,
		BreakerCap:  8 * time.Millisecond,
	}, members...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)
	return rep, fss, inners
}

// TestReadAfterWriteFreshness pins the quorum intersection property at
// the serving layer's snapshot type: after a successful quorum Put, a
// Get never observes an older version, regardless of which replica was
// down during the write (leaving it lagging) and which is down during
// the read — table-driven across every failure placement at N=3/W=2.
func TestReadAfterWriteFreshness(t *testing.T) {
	const none = -1
	for _, brokenAtPut := range []int{none, 0, 1, 2} {
		for _, brokenAtGet := range []int{none, 0, 1, 2} {
			name := fmt.Sprintf("put-broken=%d/get-broken=%d", brokenAtPut, brokenAtGet)
			t.Run(name, func(t *testing.T) {
				rep, fss, inners := newReplicatedMem(t, 3, 2)

				// v1 lands everywhere; v2 is the acked quorum write that
				// brokenAtPut misses, leaving it lagging at v1.
				if err := rep.Put(memSnap("s1", 1, 1)); err != nil {
					t.Fatal(err)
				}
				if brokenAtPut != none {
					fss[brokenAtPut].Break(nil)
				}
				if err := rep.Put(memSnap("s1", 2, 2)); err != nil {
					t.Fatal(err)
				}
				if brokenAtPut != none {
					fss[brokenAtPut].Heal()
				}
				if brokenAtGet != none {
					fss[brokenAtGet].Break(nil)
				}
				got, err := rep.Get("s1")
				if err != nil {
					t.Fatalf("Get: %v", err)
				}
				if got.Iterations != 2 || len(got.History) != 2 {
					t.Fatalf("stale read: iterations=%d history=%d, want v2", got.Iterations, len(got.History))
				}
				// Read-repair: if the lagging replica answered this read,
				// it must hold v2 now.
				if brokenAtPut != none && brokenAtPut != brokenAtGet {
					if s, err := inners[brokenAtPut].Get("s1"); err != nil || s.Iterations != 2 {
						t.Fatalf("lagging replica not repaired: %+v, %v", s, err)
					}
				}
			})
		}
	}
}

// TestReplicatedUnsealedCopyRepaired: an unsealed (format 0) copy on
// one replica claims more progress than its sealed peers. It must not
// count in the freshness vote; the read returns the sealed version and
// read-repair overwrites the unsealed copy with it.
func TestReplicatedUnsealedCopyRepaired(t *testing.T) {
	rep, _, inners := newReplicatedMem(t, 3, 2)
	if err := rep.Put(memSnap("s1", 1, 1)); err != nil {
		t.Fatal(err)
	}
	unsealed := memSnap("s1", 5, 5)
	unsealed.Format = 0
	if err := inners[0].Put(unsealed); err != nil {
		t.Fatal(err)
	}
	got, err := rep.Get("s1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != 1 {
		t.Fatalf("read returned iterations %d, want the sealed 1", got.Iterations)
	}
	fixed, err := inners[0].Get("s1")
	if err != nil || fixed.Format != SnapshotFormat || fixed.Iterations != 1 {
		t.Fatalf("unsealed copy not repaired: %+v, %v", fixed, err)
	}
	if n := rep.Stats().Repairs; n != 1 {
		t.Fatalf("repairs = %d, want 1", n)
	}
}

// TestReplicatedReadyzLadder drives the failure ladder end to end over
// HTTP: all healthy → one replica down (store_replica_degraded warning,
// serving unaffected) → quorum lost (existing degraded path: 503 +
// retryAfterMs on snapshot, serve-from-memory on reads) → healed
// (warning clears, sweep converges the replicas).
func TestReplicatedReadyzLadder(t *testing.T) {
	rep, fss, inners := newReplicatedMem(t, 3, 2)
	srv := NewWithOptions(Options{Store: rep})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 7, Depth: 2,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID

	readyz := func(wantStatus int) Readiness {
		t.Helper()
		var rd Readiness
		doJSON(t, "GET", ts.URL+"/api/v1/readyz", nil, wantStatus, &rd)
		return rd
	}

	// Rung 0: healthy — per-replica health present, no warnings.
	rd := readyz(http.StatusOK)
	if !rd.Ready || len(rd.Replicas) != 3 || len(rd.Warnings) != 0 {
		t.Fatalf("healthy readyz: %+v", rd)
	}
	for _, r := range rd.Replicas {
		if r.State != repstore.StateHealthy {
			t.Fatalf("replica %s not healthy: %+v", r.ID, r)
		}
	}

	// Rung 1: one replica down. Commits keep persisting via quorum, and
	// once the breaker trips (each commit costs the dead replica a
	// fence-Get failure and a Put failure), readyz warns without going
	// unready.
	fss[2].Break(nil)
	var commit struct {
		Persisted   bool   `json:"persisted"`
		Persistence string `json:"persistence"`
	}
	for i := 0; i < 2; i++ {
		mineBody(t, base)
		doJSON(t, "POST", base+"/commit", nil, http.StatusOK, &commit)
		if !commit.Persisted || commit.Persistence != PersistenceOK {
			t.Fatalf("commit with 1/3 replicas down: %+v", commit)
		}
	}
	rd = readyz(http.StatusOK)
	if !rd.Ready {
		t.Fatalf("1/3 down must stay ready: %+v", rd)
	}
	if len(rd.Warnings) != 1 || rd.Warnings[0] != ReasonReplicaDegraded {
		t.Fatalf("warnings = %v, want [%s]", rd.Warnings, ReasonReplicaDegraded)
	}
	found := false
	for _, r := range rd.Replicas {
		if r.ID == "r2" {
			found = true
			if r.State == repstore.StateHealthy || r.ConsecutiveFailures == 0 || r.LastError == "" {
				t.Fatalf("broken replica health: %+v", r)
			}
		}
	}
	if !found {
		t.Fatal("replica r2 missing from readyz")
	}

	// Rung 2: quorum lost. The existing storeHealth machinery takes
	// over: commit answers from memory with degraded persistence,
	// snapshot sheds load with 503 + store_degraded, reads still serve.
	fss[1].Break(nil)
	mineBody(t, base)
	doJSON(t, "POST", base+"/commit", nil, http.StatusOK, &commit)
	if commit.Persisted || commit.Persistence != PersistenceDegraded {
		t.Fatalf("commit under quorum loss: %+v", commit)
	}
	if code := v1ErrCode(t, "POST", base+"/snapshot", nil, http.StatusServiceUnavailable); code != errStoreDegraded {
		t.Fatalf("snapshot error code = %q, want %q", code, errStoreDegraded)
	}
	doJSON(t, "GET", base+"/history", nil, http.StatusOK, nil) // serve-from-memory
	rd = readyz(http.StatusServiceUnavailable)
	if rd.Ready || rd.Persistence != PersistenceDegraded {
		t.Fatalf("quorum loss readyz: %+v", rd)
	}
	if len(rd.Warnings) != 0 {
		t.Fatalf("fatal degradation must not also warn: %v", rd.Warnings)
	}

	// Rung 3: heal. The next successful persist flips storeHealth back;
	// the sweep converges the replicas byte-equal.
	fss[1].Heal()
	fss[2].Heal()
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Post(base+"/snapshot", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot did not heal: %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		healthy := 0
		for _, h := range rep.ReplicaHealth() {
			if h.State == repstore.StateHealthy {
				healthy++
			}
		}
		if rep.Sweep() == 0 && healthy == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not re-close: %+v", rep.ReplicaHealth())
		}
		time.Sleep(5 * time.Millisecond)
	}
	rd = readyz(http.StatusOK)
	if !rd.Ready || len(rd.Warnings) != 0 {
		t.Fatalf("healed readyz: %+v", rd)
	}
	want, err := inners[0].Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, inner := range inners[1:] {
		got, err := inner.Get(info.ID)
		if err != nil {
			t.Fatalf("replica %d after sweep: %v", i+1, err)
		}
		if got.Iterations != want.Iterations || len(got.History) != len(want.History) ||
			!bytes.Equal(got.Model, want.Model) {
			t.Fatalf("replica %d diverged after sweep", i+1)
		}
	}
}

// breakDir simulates a dead replica volume from outside the store:
// the directory is renamed away and a regular file takes its place, so
// every operation fails with ENOTDIR even for root. healDir reverses
// it — the "disk" comes back with its old contents.
func breakDir(t *testing.T, dir string) {
	t.Helper()
	if err := os.Rename(dir, dir+".dead"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("dead disk"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func healDir(t *testing.T, dir string) {
	t.Helper()
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir+".dead", dir); err != nil {
		t.Fatal(err)
	}
}

// TestReplicatedDirStoreByteIdenticalConvergence runs the production
// wiring over real directories: writes survive a dead replica dir, the
// dir heals with stale contents, and the anti-entropy sweep converges
// all replicas to byte-identical snapshot files.
func TestReplicatedDirStoreByteIdenticalConvergence(t *testing.T) {
	root := t.TempDir()
	dirs := []string{
		filepath.Join(root, "r0"),
		filepath.Join(root, "r1"),
		filepath.Join(root, "r2"),
	}
	rep, err := NewReplicatedDirStore(dirs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)

	if err := rep.Put(memSnap("s1", 1, 1)); err != nil {
		t.Fatal(err)
	}
	breakDir(t, dirs[2])
	if err := rep.Put(memSnap("s1", 3, 3)); err != nil {
		t.Fatalf("Put with dead replica dir: %v", err)
	}
	if err := rep.Put(memSnap("s2", 1, 0)); err != nil {
		t.Fatal(err)
	}
	got, err := rep.Get("s1")
	if err != nil || got.Iterations != 3 {
		t.Fatalf("Get with dead replica dir: %+v, %v", got, err)
	}

	healDir(t, dirs[2]) // back with stale contents (s1@v1, no s2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rep.Sweep() == 0 && dirsByteIdentical(t, dirs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica dirs did not converge byte-identical")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A NewDirStore over the healed replica alone must now restore the
	// freshest state — the point of replication.
	solo, err := NewDirStore(dirs[2])
	if err != nil {
		t.Fatal(err)
	}
	s, err := solo.Get("s1")
	if err != nil || s.Iterations != 3 {
		t.Fatalf("healed replica alone: %+v, %v", s, err)
	}
}

// dirsByteIdentical reports whether every dir holds the same *.json
// file set with identical bytes.
func dirsByteIdentical(t *testing.T, dirs []string) bool {
	t.Helper()
	var refNames []string
	refFiles := map[string][]byte{}
	for i, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return false
		}
		var names []string
		files := map[string][]byte{}
		for _, e := range ents {
			if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				return false
			}
			names = append(names, e.Name())
			files[e.Name()] = raw
		}
		sort.Strings(names)
		if i == 0 {
			refNames, refFiles = names, files
			continue
		}
		if len(names) != len(refNames) {
			return false
		}
		for j, n := range names {
			if n != refNames[j] || !bytes.Equal(files[n], refFiles[n]) {
				return false
			}
		}
	}
	return true
}

// TestReplicatedDirStoreLazyOpen: a replica dir that cannot be opened
// at construction is a broken replica, not a fatal error — and it
// heals without a restart once the path is usable again.
func TestReplicatedDirStoreLazyOpen(t *testing.T) {
	root := t.TempDir()
	dirs := []string{
		filepath.Join(root, "r0"),
		filepath.Join(root, "r1"),
		filepath.Join(root, "r2"),
	}
	// r2's path is occupied by a regular file: MkdirAll fails.
	if err := os.WriteFile(dirs[2], []byte("dead disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplicatedDirStore(dirs, 2, 0)
	if err != nil {
		t.Fatalf("one dead dir must not be fatal: %v", err)
	}
	t.Cleanup(rep.Close)
	if err := rep.Put(memSnap("s1", 2, 2)); err != nil {
		t.Fatal(err)
	}
	// The path heals; the per-op retry opens the DirStore and the sweep
	// catches it up.
	if err := os.Remove(dirs[2]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep.Sweep()
		if _, err := os.Stat(filepath.Join(dirs[2], "s1.json")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healed dir never caught up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// All three dead is configuration, not degradation.
	badRoot := t.TempDir()
	var bad []string
	for i := 0; i < 3; i++ {
		p := filepath.Join(badRoot, fmt.Sprintf("b%d", i))
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		bad = append(bad, p)
	}
	if _, err := NewReplicatedDirStore(bad, 2, 0); err == nil {
		t.Fatal("all-dead replica set must fail construction")
	}
}

// TestReplicatedQuorumErrors pins the wiring errors callers depend on.
func TestReplicatedQuorumErrors(t *testing.T) {
	if _, err := NewReplicatedDirStore([]string{t.TempDir()}, 0, 0); err == nil {
		t.Fatal("single dir must be rejected (use NewDirStore)")
	}
	rep, fss, _ := newReplicatedMem(t, 3, 2)
	fss[0].Break(nil)
	fss[1].Break(nil)
	if err := rep.Put(memSnap("s1", 1, 0)); !errors.Is(err, repstore.ErrNoQuorum) {
		t.Fatalf("Put: %v, want ErrNoQuorum", err)
	}
	if _, err := rep.Get("s1"); !errors.Is(err, repstore.ErrNoQuorum) {
		t.Fatalf("Get: %v, want ErrNoQuorum", err)
	}
}
