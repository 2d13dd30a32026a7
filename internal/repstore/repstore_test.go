package repstore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/faultstore"
)

// tsnap is the test snapshot: a versioned payload with its own
// integrity framing, so the tests exercise the corrupt-copy paths
// without importing the serving layer.
type tsnap struct {
	ID   string
	Ver  int
	Body string
	Sum  uint32
}

var (
	errNF      = errors.New("tstore: not found")
	errCorrupt = errors.New("tstore: corrupt")
)

func tsum(body string) uint32 { return crc32.ChecksumIEEE([]byte(body)) }

// cleanSnap is the canonical clean version v of a snapshot: the
// property test's "some clean-run version" is exactly this set.
func cleanSnap(id string, ver int) *tsnap {
	body := fmt.Sprintf("%s-payload-%04d", id, ver)
	return &tsnap{ID: id, Ver: ver, Body: body, Sum: tsum(body)}
}

// memChild is a minimal in-memory Inner[tsnap].
type memChild struct {
	mu sync.Mutex
	m  map[string]tsnap
}

func newMemChild() *memChild { return &memChild{m: map[string]tsnap{}} }

func (c *memChild) Put(s *tsnap) error {
	c.mu.Lock()
	c.m[s.ID] = *s
	c.mu.Unlock()
	return nil
}

func (c *memChild) Get(id string) (*tsnap, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[id]
	if !ok {
		return nil, errNF
	}
	cp := s
	return &cp, nil
}

func (c *memChild) Delete(id string) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[id]
	delete(c.m, id)
	return ok, nil
}

func (c *memChild) List() ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.m))
	for id := range c.m {
		out = append(out, id)
	}
	return out, nil
}

// peek returns the raw stored copy (no quorum, no repair).
func (c *memChild) peek(id string) (tsnap, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[id]
	return s, ok
}

func (c *memChild) poke(s tsnap) {
	c.mu.Lock()
	c.m[s.ID] = s
	c.mu.Unlock()
}

func testConfig(w int) Config[tsnap] {
	return Config[tsnap]{
		WriteQuorum: w,
		ID:          func(s *tsnap) string { return s.ID },
		Progress:    func(s *tsnap) (int64, int64) { return int64(s.Ver), int64(s.Ver) },
		Verify: func(s *tsnap) error {
			if tsum(s.Body) != s.Sum {
				return fmt.Errorf("%w: body/sum mismatch", errCorrupt)
			}
			return nil
		},
		NotFound:    errNF,
		Corrupt:     errCorrupt,
		BreakerBase: time.Millisecond,
		BreakerCap:  4 * time.Millisecond,
	}
}

func newRep(t *testing.T, w int, children ...Inner[tsnap]) *Replicated[tsnap] {
	t.Helper()
	members := make([]Member[tsnap], len(children))
	for i, c := range children {
		members[i] = Member[tsnap]{ID: fmt.Sprintf("r%d", i), Store: c}
	}
	rep, err := New(testConfig(w), members...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rep.Close)
	return rep
}

func TestQuorumConfig(t *testing.T) {
	for _, tc := range []struct{ n, w, wantW, wantR int }{
		{1, 0, 1, 1},
		{3, 0, 2, 2},
		{3, 3, 3, 1},
		{5, 0, 3, 3},
		{4, 0, 3, 2},
	} {
		children := make([]Inner[tsnap], tc.n)
		for i := range children {
			children[i] = newMemChild()
		}
		rep := newRep(t, tc.w, children...)
		w, r, n := rep.Quorum()
		if w != tc.wantW || r != tc.wantR || n != tc.n {
			t.Errorf("n=%d w=%d: got (w=%d r=%d n=%d), want (w=%d r=%d)", tc.n, tc.w, w, r, n, tc.wantW, tc.wantR)
		}
	}
	if _, err := New(testConfig(4), Member[tsnap]{ID: "a", Store: newMemChild()}); err == nil {
		t.Fatal("want error for W > N")
	}
	if _, err := New(testConfig(1)); err == nil {
		t.Fatal("want error for zero replicas")
	}
}

func TestPutGetDeleteBasic(t *testing.T) {
	c0, c1, c2 := newMemChild(), newMemChild(), newMemChild()
	rep := newRep(t, 2, c0, c1, c2)

	if _, err := rep.Get("s1"); !errors.Is(err, errNF) {
		t.Fatalf("Get absent: %v, want NotFound", err)
	}
	v1 := cleanSnap("s1", 1)
	if err := rep.Put(v1); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for i, c := range []*memChild{c0, c1, c2} {
		if got, ok := c.peek("s1"); !ok || got.Ver != 1 {
			t.Fatalf("replica %d: got %+v ok=%v, want v1", i, got, ok)
		}
	}
	got, err := rep.Get("s1")
	if err != nil || got.Ver != 1 || got.Body != v1.Body {
		t.Fatalf("Get: %+v, %v", got, err)
	}
	ids, err := rep.List()
	if err != nil || len(ids) != 1 || ids[0] != "s1" {
		t.Fatalf("List: %v, %v", ids, err)
	}
	existed, err := rep.Delete("s1")
	if err != nil || !existed {
		t.Fatalf("Delete: %v, %v", existed, err)
	}
	if _, err := rep.Get("s1"); !errors.Is(err, errNF) {
		t.Fatalf("Get after delete: %v, want NotFound", err)
	}
}

func TestPutSucceedsWithMinorityBroken(t *testing.T) {
	c0, c1 := newMemChild(), newMemChild()
	fs2 := faultstore.New[tsnap](newMemChild(), faultstore.Plan{})
	rep := newRep(t, 2, c0, c1, fs2)

	fs2.Break(nil)
	if err := rep.Put(cleanSnap("s1", 1)); err != nil {
		t.Fatalf("Put with 1/3 broken: %v", err)
	}
	if got, _ := rep.Get("s1"); got == nil || got.Ver != 1 {
		t.Fatalf("Get: %+v", got)
	}
	if st := fs2.Stats(); st.FailedPuts == 0 {
		t.Fatal("fault injection never fired") // non-vacuity (faultstore.Stats)
	}
}

func TestPutFailsWithoutQuorum(t *testing.T) {
	c0 := newMemChild()
	fs1 := faultstore.New[tsnap](newMemChild(), faultstore.Plan{})
	fs2 := faultstore.New[tsnap](newMemChild(), faultstore.Plan{})
	rep := newRep(t, 2, c0, fs1, fs2)

	fs1.Break(nil)
	fs2.Break(nil)
	if err := rep.Put(cleanSnap("s1", 1)); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Put with 2/3 broken: %v, want ErrNoQuorum", err)
	}
	if st := rep.Stats(); st.PutQuorumFailures != 1 {
		t.Fatalf("PutQuorumFailures = %d, want 1", st.PutQuorumFailures)
	}
}

// TestBreakerLifecycle walks one replica's breaker through
// closed → open → half-open probe → re-open (doubled backoff) →
// half-open probe → closed, with an injected clock.
func TestBreakerLifecycle(t *testing.T) {
	fs := faultstore.New[tsnap](newMemChild(), faultstore.Plan{})
	rep := newRep(t, 1, fs)
	now := time.Unix(1000, 0)
	rep.now = func() time.Time { return now }

	fs.Break(nil)
	snap := cleanSnap("s1", 1)
	for i := 0; i < 3; i++ {
		if err := rep.Put(snap); !errors.Is(err, ErrNoQuorum) {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	h := rep.ReplicaHealth()[0]
	if h.State != StateOpen || h.ConsecutiveFailures != 3 || h.LastError == "" {
		t.Fatalf("after 3 failures: %+v, want open", h)
	}
	// While open, operations are skipped entirely: the broken child
	// sees no new calls.
	before := fs.Stats().Puts
	if err := rep.Put(snap); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Put while open: %v", err)
	}
	if after := fs.Stats().Puts; after != before {
		t.Fatalf("open breaker leaked an op: %d -> %d", before, after)
	}

	// Backoff expiry: exactly one half-open probe goes through. It
	// fails, so the breaker re-opens with doubled backoff.
	now = now.Add(time.Second)
	before = fs.Stats().Puts
	_ = rep.Put(snap)
	if after := fs.Stats().Puts; after != before+1 {
		t.Fatalf("half-open probe: child saw %d ops, want 1", after-before)
	}
	if h := rep.ReplicaHealth()[0]; h.State != StateOpen {
		t.Fatalf("after failed probe: %+v, want open again", h)
	}

	// Heal; next probe (after backoff) closes the breaker.
	fs.Heal()
	now = now.Add(time.Second)
	if err := rep.Put(snap); err != nil {
		t.Fatalf("Put after heal: %v", err)
	}
	if h := rep.ReplicaHealth()[0]; h.State != StateHealthy || h.ConsecutiveFailures != 0 || h.LastError != "" {
		t.Fatalf("after successful probe: %+v, want healthy", h)
	}
}

// TestHalfOpenSingleProbe pins the single-probe discipline: with the
// backoff expired, concurrent operations admit exactly one probe.
func TestHalfOpenSingleProbe(t *testing.T) {
	fs := faultstore.New[tsnap](newMemChild(), faultstore.Plan{Latency: 5 * time.Millisecond})
	rep := newRep(t, 1, fs)
	now := time.Unix(1000, 0)
	var nowMu sync.Mutex
	rep.now = func() time.Time { nowMu.Lock(); defer nowMu.Unlock(); return now }

	fs.Break(nil)
	for i := 0; i < 3; i++ {
		_ = rep.Put(cleanSnap("s1", 1))
	}
	nowMu.Lock()
	now = now.Add(time.Second)
	nowMu.Unlock()
	before := fs.Stats().Puts
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = rep.Get("s1")
		}()
	}
	wg.Wait()
	if probes := fs.Stats().Gets + fs.Stats().Puts - before; probes != 1 {
		t.Fatalf("half-open admitted %d probes, want 1", probes)
	}
}

func TestReadRepairLaggingMissingCorrupt(t *testing.T) {
	c0, c1, c2 := newMemChild(), newMemChild(), newMemChild()
	rep := newRep(t, 2, c0, c1, c2)

	if err := rep.Put(cleanSnap("s1", 5)); err != nil {
		t.Fatal(err)
	}
	// Lagging, missing, and corrupt minorities, one at a time.
	c0.poke(*cleanSnap("s1", 3)) // lagging
	if got, err := rep.Get("s1"); err != nil || got.Ver != 5 {
		t.Fatalf("Get over lagging replica: %+v, %v", got, err)
	}
	if s, _ := c0.peek("s1"); s.Ver != 5 {
		t.Fatalf("lagging replica not repaired: %+v", s)
	}

	c1.Delete("s1") // missing
	if got, err := rep.Get("s1"); err != nil || got.Ver != 5 {
		t.Fatalf("Get over missing replica: %+v, %v", got, err)
	}
	if s, ok := c1.peek("s1"); !ok || s.Ver != 5 {
		t.Fatalf("missing replica not repaired: %+v", s)
	}

	bad := *cleanSnap("s1", 5)
	bad.Body = "garbage"
	c2.poke(bad) // corrupt (sum mismatch)
	if got, err := rep.Get("s1"); err != nil || got.Ver != 5 || got.Body != cleanSnap("s1", 5).Body {
		t.Fatalf("Get over corrupt replica: %+v, %v", got, err)
	}
	if s, _ := c2.peek("s1"); s.Body != cleanSnap("s1", 5).Body {
		t.Fatalf("corrupt replica not repaired: %+v", s)
	}
	if st := rep.Stats(); st.Repairs < 3 {
		t.Fatalf("Repairs = %d, want >= 3", st.Repairs)
	}
}

// TestCorruptReplyDoesNotCountTowardReadQuorum pins the safety rule
// behind read quorums: a replica whose copy fails integrity cannot
// vouch for a version, so it must not help assemble R — otherwise the
// one surviving fresh copy could be outvoted by garbage.
func TestCorruptReplyDoesNotCountTowardReadQuorum(t *testing.T) {
	c0 := newMemChild()
	fs1 := faultstore.New[tsnap](newMemChild(), faultstore.Plan{})
	c2 := newMemChild()
	rep := newRep(t, 2, c0, fs1, c2)

	if err := rep.Put(cleanSnap("s1", 2)); err != nil {
		t.Fatal(err)
	}
	bad := *cleanSnap("s1", 2)
	bad.Body = "garbage"
	c0.poke(bad)
	fs1.Break(nil)
	// Answers: c0 corrupt, c1 down, c2 found v2 → only one
	// version-bearing reply; R=2 is not met. Serving v2 here would be
	// correct by luck — with the corrupt reply counted, a *stale* c2
	// would be served the same way.
	if _, err := rep.Get("s1"); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Get: %v, want ErrNoQuorum", err)
	}
	if st := rep.Stats(); st.GetQuorumFailures == 0 {
		t.Fatal("GetQuorumFailures not counted")
	}
}

// TestQuorumAbsentCleansCorruptCopy: when a read quorum agrees the id
// is absent, a corrupt minority copy is unacked garbage — it must be
// deleted (there is nothing to repair it from), so sweeps converge.
func TestQuorumAbsentCleansCorruptCopy(t *testing.T) {
	c0, c1, c2 := newMemChild(), newMemChild(), newMemChild()
	rep := newRep(t, 2, c0, c1, c2)

	bad := *cleanSnap("s1", 1)
	bad.Body = "garbage"
	c0.poke(bad)
	if _, err := rep.Get("s1"); !errors.Is(err, errNF) {
		t.Fatalf("Get: %v, want NotFound", err)
	}
	if _, ok := c0.peek("s1"); ok {
		t.Fatal("corrupt unacked copy not cleaned up")
	}
	if rep.Sweep() != 0 {
		t.Fatal("sweep after cleanup should repair nothing")
	}
}

func TestDeleteTombstoneBlocksResurrection(t *testing.T) {
	c0, c1 := newMemChild(), newMemChild()
	inner2 := newMemChild()
	fs2 := faultstore.New[tsnap](inner2, faultstore.Plan{})
	rep := newRep(t, 2, c0, c1, fs2)

	if err := rep.Put(cleanSnap("s1", 4)); err != nil {
		t.Fatal(err)
	}
	fs2.Break(nil) // replica 2 misses the delete
	if existed, err := rep.Delete("s1"); err != nil || !existed {
		t.Fatalf("Delete: %v, %v", existed, err)
	}
	fs2.Heal()
	if s, ok := inner2.peek("s1"); !ok || s.Ver != 4 {
		t.Fatalf("setup: replica 2 should still hold v4, got %+v ok=%v", s, ok)
	}
	// The healed replica still holds v4; without the tombstone a read
	// or sweep would "repair" it back onto the others.
	if _, err := rep.Get("s1"); !errors.Is(err, errNF) {
		t.Fatalf("Get after delete: %v, want NotFound", err)
	}
	if _, ok := inner2.peek("s1"); ok {
		t.Fatal("stale copy not delete-propagated on read")
	}
	rep.Sweep()
	for i, c := range []*memChild{c0, c1, inner2} {
		if _, ok := c.peek("s1"); ok {
			t.Fatalf("replica %d resurrected a deleted id", i)
		}
	}
	if ids, err := rep.List(); err != nil || len(ids) != 0 {
		t.Fatalf("List after delete: %v, %v", ids, err)
	}
}

// TestDeleteTombstoneExpires: a tombstone suppresses the id for exactly
// deleteTTL on the injected clock; past it the id is no longer
// tombstoned and its map entry is dropped, so the map cannot grow
// without bound across deletes.
func TestDeleteTombstoneExpires(t *testing.T) {
	rep := newRep(t, 2, newMemChild(), newMemChild(), newMemChild())
	now := time.Unix(1000, 0)
	rep.now = func() time.Time { return now }
	entries := func() int {
		rep.delMu.Lock()
		defer rep.delMu.Unlock()
		return len(rep.deleted)
	}

	if err := rep.Put(cleanSnap("s1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Delete("s1"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(deleteTTL)
	if !rep.tombstoned("s1") || entries() != 1 {
		t.Fatalf("at deleteTTL: tombstoned=%v entries=%d, want true/1", rep.tombstoned("s1"), entries())
	}
	now = now.Add(time.Nanosecond)
	if rep.tombstoned("s1") {
		t.Fatal("tombstone outlived deleteTTL")
	}
	if n := entries(); n != 0 {
		t.Fatalf("expired tombstone still in the map: %d entries", n)
	}
}

func TestListUnionCoversLaggingReplicas(t *testing.T) {
	c0, c1, c2 := newMemChild(), newMemChild(), newMemChild()
	rep := newRep(t, 2, c0, c1, c2)

	// An id only one replica knows (e.g. the only ack of a failed
	// quorum write) must still be discoverable, or the sweep could
	// never find it.
	c2.poke(*cleanSnap("orphan", 1))
	ids, err := rep.List()
	if err != nil || len(ids) != 1 || ids[0] != "orphan" {
		t.Fatalf("List: %v, %v", ids, err)
	}
}

func TestSweepConvergesHealedReplica(t *testing.T) {
	c0, c1 := newMemChild(), newMemChild()
	inner2 := newMemChild()
	fs2 := faultstore.New[tsnap](inner2, faultstore.Plan{})
	rep := newRep(t, 2, c0, c1, fs2)

	fs2.Break(nil)
	for v := 1; v <= 3; v++ {
		if err := rep.Put(cleanSnap("s1", v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Put(cleanSnap("s2", 1)); err != nil {
		t.Fatal(err)
	}
	fs2.Heal()
	time.Sleep(10 * time.Millisecond) // past BreakerCap: allow the half-open probe
	deadline := time.Now().Add(2 * time.Second)
	for rep.Sweep() > 0 || !childrenEqual(c0, c1, inner2) {
		if time.Now().After(deadline) {
			t.Fatalf("sweep did not converge; replica2=%v", inner2.m)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s, ok := inner2.peek("s1"); !ok || s.Ver != 3 {
		t.Fatalf("healed replica: %+v ok=%v, want v3", s, ok)
	}
	if s, ok := inner2.peek("s2"); !ok || s.Ver != 1 {
		t.Fatalf("healed replica s2: %+v ok=%v", s, ok)
	}
	if st := rep.Stats(); st.Repairs == 0 || st.Sweeps == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func childrenEqual(children ...*memChild) bool {
	var ref map[string]tsnap
	for i, c := range children {
		c.mu.Lock()
		m := make(map[string]tsnap, len(c.m))
		for k, v := range c.m {
			m[k] = v
		}
		c.mu.Unlock()
		if i == 0 {
			ref = m
		} else if !reflect.DeepEqual(ref, m) {
			return false
		}
	}
	return true
}

// TestFaultInterleavingsConverge is the §11 contract, per replica: at
// N=3/W=2, under an arbitrary seeded interleaving of replica outages,
// hard put/get failures, and torn writes (one replica tears, modelling
// uncorrelated disk faults), after heal + anti-entropy every replica
// holds the *same clean-run version* of every snapshot, at least as
// fresh as the newest acked write; and no read during the storm ever
// observed a version older than acked or a mangled body.
func TestFaultInterleavingsConverge(t *testing.T) {
	const (
		seeds = 30
		puts  = 10
	)
	totalInjected, totalMangled := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inners := [3]*memChild{newMemChild(), newMemChild(), newMemChild()}
		var fss [3]*faultstore.Store[tsnap]
		tornReplica := rng.Intn(3)
		for i := range fss {
			plan := faultstore.Plan{Seed: seed*10 + int64(i)}
			for n := 1; n <= 25; n++ {
				if rng.Float64() < 0.15 {
					plan.FailPuts = append(plan.FailPuts, n)
				}
				if rng.Float64() < 0.15 {
					plan.FailGets = append(plan.FailGets, n)
				}
				if i == tornReplica && rng.Float64() < 0.10 {
					plan.TornPuts = append(plan.TornPuts, n)
				}
			}
			fs := faultstore.New[tsnap](inners[i], plan)
			fs.Mangle = func(s tsnap) tsnap {
				s.Body += "-torn" // sum no longer matches: Verify catches it
				return s
			}
			fss[i] = fs
		}
		cfg := testConfig(2)
		cfg.Seed = seed
		rep, err := New(cfg,
			Member[tsnap]{ID: "r0", Store: fss[0]},
			Member[tsnap]{ID: "r1", Store: fss[1]},
			Member[tsnap]{ID: "r2", Store: fss[2]})
		if err != nil {
			t.Fatal(err)
		}

		// Drive: interleave quorum writes, reads, and imperative
		// outages. Track the highest acked version — the durability
		// floor the converged state must reach.
		maxAcked := 0
		for v := 1; v <= puts; v++ {
			if rng.Float64() < 0.2 {
				fss[rng.Intn(3)].Break(nil)
			}
			if rng.Float64() < 0.3 {
				for i := range fss {
					fss[i].Heal()
				}
			}
			if err := rep.Put(cleanSnap("s1", v)); err == nil {
				maxAcked = v
			} else if !errors.Is(err, ErrNoQuorum) {
				t.Fatalf("seed %d: put v%d: %v", seed, v, err)
			}
			if rng.Float64() < 0.5 {
				got, gerr := rep.Get("s1")
				if gerr == nil {
					// Read-after-write freshness + integrity, mid-storm.
					if got.Ver < maxAcked {
						t.Fatalf("seed %d: read v%d older than acked v%d", seed, got.Ver, maxAcked)
					}
					if got.Body != cleanSnap("s1", got.Ver).Body {
						t.Fatalf("seed %d: read mangled body %q", seed, got.Body)
					}
				}
			}
			time.Sleep(time.Millisecond) // let breaker backoffs tick
		}

		// Heal: end outages (planned faults exhaust as indices pass) and
		// sweep until a pass repairs nothing and replicas are identical.
		for i := range fss {
			fss[i].Heal()
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			repaired := rep.Sweep()
			if repaired == 0 && childrenEqual(inners[0], inners[1], inners[2]) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: no convergence: %v / %v / %v", seed, inners[0].m, inners[1].m, inners[2].m)
			}
			time.Sleep(2 * time.Millisecond)
		}
		// Converged state: every replica equal, holding a clean version
		// >= the durability floor (or consistently absent when nothing
		// was ever acked).
		got, ok := inners[0].peek("s1")
		if maxAcked > 0 && !ok {
			t.Fatalf("seed %d: acked v%d but converged absent", seed, maxAcked)
		}
		if ok {
			if got.Ver < maxAcked || got.Ver > puts {
				t.Fatalf("seed %d: converged on v%d, acked floor v%d", seed, got.Ver, maxAcked)
			}
			if want := cleanSnap("s1", got.Ver); got != *want {
				t.Fatalf("seed %d: converged state %+v is not clean version %+v", seed, got, want)
			}
		}
		for i := range fss {
			st := fss[i].Stats()
			totalInjected += st.Injected()
			totalMangled += st.Mangled
		}
		rep.Close()
	}
	// Non-vacuity: across all seeds the schedule must actually have
	// injected failures and torn writes (satellite: faultstore.Stats).
	if totalInjected == 0 || totalMangled == 0 {
		t.Fatalf("vacuous run: injected=%d mangled=%d", totalInjected, totalMangled)
	}
}
