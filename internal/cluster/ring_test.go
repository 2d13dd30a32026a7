package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// owner is the shard owning key with every member eligible, or "" on
// an empty ring.
func owner(r *Ring, key string) string {
	id, _ := r.OwnerAmong(key, nil)
	return id
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%06d", i)
	}
	return out
}

// TestRingDeterministicAcrossConstruction: the assignment is a pure
// function of the membership set — input order, duplicates and a fresh
// build (a router restart) all yield identical owners. This is the
// property that lets two router processes route without coordination.
func TestRingDeterministicAcrossConstruction(t *testing.T) {
	shards := []string{"shard-2", "shard-0", "shard-1", "shard-3"}
	a := NewRing(shards, 64)
	perm := []string{"shard-3", "shard-1", "shard-0", "shard-2", "shard-1"}
	b := NewRing(perm, 64)
	for _, k := range keys(5000) {
		if owner(a, k) != owner(b, k) {
			t.Fatalf("owner of %q differs across construction order: %q vs %q", k, owner(a, k), owner(b, k))
		}
	}
}

// TestRingRemapFraction: removing one of N shards remaps exactly the
// removed shard's keys (~1/N of the keyspace) and no others; adding a
// shard remaps ~1/(N+1), all onto the new shard. This is the defining
// consistent-hashing property — a ring change migrates a bounded slice
// of sessions, not the whole population.
func TestRingRemapFraction(t *testing.T) {
	const n = 5
	const nkeys = 20000
	shards := make([]string, n)
	for i := range shards {
		shards[i] = fmt.Sprintf("shard-%d", i)
	}
	full := NewRing(shards, 64)
	ks := keys(nkeys)

	t.Run("remove", func(t *testing.T) {
		removed := "shard-2"
		smaller := NewRing([]string{"shard-0", "shard-1", "shard-3", "shard-4"}, 64)
		moved := 0
		for _, k := range ks {
			was, now := owner(full, k), owner(smaller, k)
			if was != removed && now != was {
				t.Fatalf("key %q moved %q→%q though %q was the shard removed", k, was, now, removed)
			}
			if was == removed {
				moved++
			}
		}
		assertNearFraction(t, moved, nkeys, 1.0/n)
	})

	t.Run("removal equals failover walk", func(t *testing.T) {
		// Marking a shard ineligible must agree with rebuilding the ring
		// without it: keys fail over to exactly the owner they would have
		// under the smaller membership, so a crash and a decommission
		// route identically.
		down := "shard-2"
		smaller := NewRing([]string{"shard-0", "shard-1", "shard-3", "shard-4"}, 64)
		alive := func(id string) bool { return id != down }
		for _, k := range ks {
			got, ok := full.OwnerAmong(k, alive)
			if !ok || got != owner(smaller, k) {
				t.Fatalf("failover owner of %q = %q, want %q", k, got, owner(smaller, k))
			}
		}
	})

	t.Run("add", func(t *testing.T) {
		bigger := NewRing(append(append([]string(nil), shards...), "shard-5"), 64)
		moved := 0
		for _, k := range ks {
			was, now := owner(full, k), owner(bigger, k)
			if now != was {
				if now != "shard-5" {
					t.Fatalf("key %q moved %q→%q, not onto the added shard", k, was, now)
				}
				moved++
			}
		}
		assertNearFraction(t, moved, nkeys, 1.0/(n+1))
	})
}

// assertNearFraction allows ±40% relative slack around the ideal
// fraction: with 64 vnodes per shard the per-shard load varies, but a
// naive mod-N hash would remap (N-1)/N ≈ 80% of keys here — orders of
// magnitude outside this band — so the test cleanly separates
// consistent hashing from rehash-everything.
func assertNearFraction(t *testing.T, moved, total int, ideal float64) {
	t.Helper()
	frac := float64(moved) / float64(total)
	if frac < ideal*0.6 || frac > ideal*1.4 {
		t.Fatalf("remapped fraction %.4f outside [%.4f, %.4f] (ideal %.4f)",
			frac, ideal*0.6, ideal*1.4, ideal)
	}
}

// TestRingBalance: with 64 vnodes the most and least loaded of 4 shards
// stay within a factor of two for a large random keyspace — not a tight
// bound, just a guard against a degenerate hash that piles everything
// onto one shard.
func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"a", "b", "c", "d"}, 0)
	rng := rand.New(rand.NewSource(7))
	counts := map[string]int{}
	const nkeys = 40000
	for i := 0; i < nkeys; i++ {
		counts[owner(r, fmt.Sprintf("k%x", rng.Int63()))]++
	}
	min, max := nkeys, 0
	for _, id := range r.Shards() {
		c := counts[id]
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 || max > 2*min {
		t.Fatalf("imbalanced ring: min %d max %d (%v)", min, max, counts)
	}
}

// TestRingEdgeCases: empty and single-member rings behave sanely.
func TestRingEdgeCases(t *testing.T) {
	empty := NewRing(nil, 8)
	if got := owner(empty, "x"); got != "" {
		t.Fatalf("empty ring owner = %q", got)
	}
	one := NewRing([]string{"only"}, 8)
	if got := owner(one, "anything"); got != "only" {
		t.Fatalf("single ring owner = %q", got)
	}
	if _, ok := one.OwnerAmong("k", func(string) bool { return false }); ok {
		t.Fatal("no eligible shard must report !ok")
	}
}
