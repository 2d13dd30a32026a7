package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitset"
)

// This file keeps the map-based intention dedup that beam expansion used
// before Batch.Expand's subset rule, as the reference the rule is tested
// against.

// Dedup tracks which canonical intentions have been generated, keyed by
// a 64-bit integer hash of the ID slice with exact verification on
// bucket collisions. When the language and depth fit (see NewDedupFor),
// the table instead packs the whole canonical intention into one uint64
// key — an exact, collision-free identity.
type Dedup struct {
	m map[uint64][][]CondID

	packed map[uint64]struct{} // non-nil → packed exact-key mode
}

// NewDedup returns an empty dedup table.
func NewDedup() *Dedup {
	return &Dedup{m: map[uint64][][]CondID{}}
}

// NewDedupFor returns a dedup table for intentions of at most maxDepth
// conditions over a language of numConds conditions: the exact packed
// form when every canonical intention fits one uint64 (at most 4 IDs,
// each below 2¹⁶−1), otherwise the generic hash table.
func NewDedupFor(numConds, maxDepth int) *Dedup {
	if maxDepth <= 4 && numConds < 1<<16-1 {
		return &Dedup{packed: make(map[uint64]struct{}, 1024)}
	}
	return NewDedup()
}

func hashIDs(ids []CondID) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64
	for _, id := range ids {
		h ^= uint64(uint32(id))
		h *= 1099511628211
	}
	return h
}

// Insert records the canonical intention ids if it is new, returning
// the stored copy and whether it was fresh.
func (d *Dedup) Insert(ids []CondID) ([]CondID, bool) {
	if d.m == nil {
		d.m = map[uint64][][]CondID{}
	}
	h := hashIDs(ids)
	for _, have := range d.m[h] {
		if equalIDs(have, ids) {
			return nil, false
		}
	}
	stored := append([]CondID(nil), ids...)
	d.m[h] = append(d.m[h], stored)
	return stored, true
}

// Seen records the canonical intention ids if it is new and reports
// whether it had been recorded before.
func (d *Dedup) Seen(ids []CondID) bool {
	if d.packed != nil && len(ids) <= 4 {
		// Ascending IDs, 16 bits each, offset by one so the packing
		// distinguishes lengths.
		var key uint64
		for _, id := range ids {
			key = key<<16 | uint64(id+1)
		}
		if _, dup := d.packed[key]; dup {
			return true
		}
		d.packed[key] = struct{}{}
		return false
	}
	_, fresh := d.Insert(ids)
	return !fresh
}

func equalIDs(a, b []CondID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RefExpand is beam expansion as it ran with the dedup table: every
// refinement of every parent, in beam then condition order, skipping
// intentions the table has already seen at this level.
func RefExpand(b *Batch, depth int, beam []Scored, numConds int) {
	seen := NewDedupFor(numConds, depth)
	b.Reset(depth)
	var scratch []CondID
	for i := range beam {
		p := &beam[i]
		b.StartParent(p.Ext)
		for ci := 0; ci < numConds; ci++ {
			id := CondID(ci)
			if ContainsID(p.Ids, id) {
				continue
			}
			scratch = InsertSorted(scratch[:0], p.Ids, id)
			if seen.Seen(scratch) {
				continue
			}
			b.parentOf = append(b.parentOf, int32(len(b.parents)-1))
			b.conds = append(b.conds, id)
			b.ids = append(b.ids, scratch...)
		}
	}
}

// BatchDiff describes the first difference between two batches' columns
// (depth, parents by identity, parent indices, conditions, intention
// arena), or returns "" when they are identical.
func BatchDiff(want, got *Batch) string {
	switch {
	case want.depth != got.depth:
		return fmt.Sprintf("depth %d, want %d", got.depth, want.depth)
	case len(want.parents) != len(got.parents):
		return fmt.Sprintf("%d parents, want %d", len(got.parents), len(want.parents))
	case want.Len() != got.Len():
		return fmt.Sprintf("%d candidates, want %d", got.Len(), want.Len())
	}
	for i := range want.parents {
		if want.parents[i] != got.parents[i] {
			return fmt.Sprintf("parent %d differs", i)
		}
	}
	for i := range want.conds {
		if want.parentOf[i] != got.parentOf[i] || want.conds[i] != got.conds[i] ||
			!equalIDs(want.IDs(i), got.IDs(i)) {
			return fmt.Sprintf("candidate %d: parent %d cond %d ids %v, want parent %d cond %d ids %v",
				i, got.parentOf[i], got.conds[i], got.IDs(i),
				want.parentOf[i], want.conds[i], want.IDs(i))
		}
	}
	return ""
}

func TestDedupInsert(t *testing.T) {
	d := NewDedup()
	scratch := []CondID{3, 7}
	stored, fresh := d.Insert(scratch)
	if !fresh || stored == nil {
		t.Fatal("first insert must be fresh")
	}
	// Mutating the scratch must not affect the stored copy.
	scratch[0] = 99
	if _, fresh := d.Insert([]CondID{3, 7}); fresh {
		t.Fatal("duplicate insert must not be fresh")
	}
	if _, fresh := d.Insert([]CondID{3}); !fresh {
		t.Fatal("prefix is a different intention")
	}
	if _, fresh := d.Insert([]CondID{3, 7, 9}); !fresh {
		t.Fatal("extension is a different intention")
	}
}

func TestHashIDsOrderSensitivity(t *testing.T) {
	// Canonical slices are sorted, but the hash must still separate
	// different sets reliably; sanity-check a window of small sets.
	seen := map[uint64][]CondID{}
	for a := CondID(0); a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			ids := []CondID{a, b}
			h := hashIDs(ids)
			if prev, ok := seen[h]; ok {
				t.Fatalf("hash collision between %v and %v (dedup stays exact, but the hash is weak)", prev, ids)
			}
			seen[h] = ids
		}
	}
}

// randomBeam draws up to width distinct intentions of d conditions out
// of the first pool conditions, each with its own extension. A small
// pool makes many refinements coincide.
func randomBeam(rng *rand.Rand, width, d, pool int) []Scored {
	var beam []Scored
	have := map[string]bool{}
	for tries := 0; len(beam) < width && tries < 50*width; tries++ {
		ids := make([]CondID, d)
		for i, c := range rng.Perm(pool)[:d] {
			ids[i] = CondID(c)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		key := fmt.Sprint(ids)
		if have[key] {
			continue
		}
		have[key] = true
		beam = append(beam, Scored{Ids: ids, Ext: bitset.New(1)})
	}
	return beam
}

// TestExpandMatchesDedupReference checks Batch.Expand against the
// dedup-table expansion on random beams built to collide: few
// conditions, many parents, and depths past the four the packed table
// could key.
func TestExpandMatchesDedupReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	got := &Batch{}
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(7)
		pool := d + 1 + rng.Intn(6)
		numConds := pool + rng.Intn(4)
		beam := randomBeam(rng, 1+rng.Intn(40), d, pool)
		want := &Batch{}
		RefExpand(want, d+1, beam, numConds)
		got.Expand(d+1, beam, numConds)
		if diff := BatchDiff(want, got); diff != "" {
			t.Fatalf("trial %d (depth %d, %d parents, %d conditions): %s",
				trial, d+1, len(beam), numConds, diff)
		}
	}
	// The empty intention expands to every condition once.
	want := &Batch{}
	RefExpand(want, 1, make([]Scored, 1), 9)
	got.Expand(1, make([]Scored, 1), 9)
	if diff := BatchDiff(want, got); diff != "" {
		t.Fatalf("depth 1: %s", diff)
	}
}
