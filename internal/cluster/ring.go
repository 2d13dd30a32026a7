// Package cluster is the horizontal scale-out tier: a stateless router
// consistent-hashes session ids onto N sisd-server shards, health-checks
// them through the serving layer's readyz probe, sheds load when a
// shard's mine queue saturates, and migrates sessions between shards by
// snapshot handoff over a shared Store. Nothing in this package touches
// mining state directly — correctness rides entirely on the properties
// the lower layers already guarantee: byte-identical snapshot restore
// (DESIGN.md §6), version-pinned mines (§10) and crash-safe durable
// snapshots (§11). See DESIGN.md §12 for the cluster architecture.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultVNodes is the virtual-node count per shard. 64 vnodes keep the
// expected per-shard load imbalance for a random keyspace under ~12%
// while the ring stays small enough that construction and binary search
// are negligible next to one proxied request.
const defaultVNodes = 64

// Ring is a consistent-hash ring with static membership. Construction
// is deterministic in the membership *set*: the same shard ids produce
// the same ring (and hence the same session→shard assignment) in every
// process and across restarts, regardless of the order the ids were
// supplied in. That determinism is what lets a restarted router — or a
// second router instance — route every existing session to the shard
// that already holds it without any shared routing table.
type Ring struct {
	shards []string // sorted unique member ids
	vhash  []uint64 // vnode positions, sorted
	vshard []int    // vnode → index into shards, aligned with vhash
}

// NewRing builds a ring over the given shard ids with vnodesPerShard
// virtual nodes each (<= 0 selects the default). Duplicate ids collapse
// to one membership.
func NewRing(shards []string, vnodesPerShard int) *Ring {
	if vnodesPerShard <= 0 {
		vnodesPerShard = defaultVNodes
	}
	seen := map[string]bool{}
	var members []string
	for _, id := range shards {
		if !seen[id] {
			seen[id] = true
			members = append(members, id)
		}
	}
	sort.Strings(members)
	r := &Ring{shards: members}
	type vn struct {
		h     uint64
		shard int
	}
	vns := make([]vn, 0, len(members)*vnodesPerShard)
	for si, id := range members {
		for v := 0; v < vnodesPerShard; v++ {
			vns = append(vns, vn{hash64(fmt.Sprintf("%s#%d", id, v)), si})
		}
	}
	// Ties (astronomically rare with 64-bit FNV, but possible) break by
	// shard index — itself deterministic because members are sorted — so
	// two rings over the same membership can never disagree.
	sort.Slice(vns, func(i, j int) bool {
		if vns[i].h != vns[j].h {
			return vns[i].h < vns[j].h
		}
		return vns[i].shard < vns[j].shard
	})
	r.vhash = make([]uint64, len(vns))
	r.vshard = make([]int, len(vns))
	for i, v := range vns {
		r.vhash[i] = v.h
		r.vshard[i] = v.shard
	}
	return r
}

// Shards returns the member ids, sorted.
func (r *Ring) Shards() []string {
	return append([]string(nil), r.shards...)
}

// hash64 is FNV-1a followed by a splitmix64 finalizer. FNV is cheap and
// stable across processes and Go versions (unlike maphash, whose seed
// is per-process by design), but on the short, similar strings used
// here ("shard-0#17", "s0042") its raw output clusters enough to
// visibly imbalance the ring; the avalanche mix spreads those clusters
// over the full 64-bit space.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// OwnerAmong returns the first shard clockwise from key's hash for
// which eligible reports true (nil means every member is eligible) —
// the failover walk: when a shard is down, its keys fall to their
// successors, and every other key keeps its owner. The second result is
// false when no member is eligible.
func (r *Ring) OwnerAmong(key string, eligible func(id string) bool) (string, bool) {
	if len(r.vhash) == 0 {
		return "", false
	}
	h := hash64(key)
	start := sort.Search(len(r.vhash), func(i int) bool { return r.vhash[i] >= h })
	tried := 0
	seen := make([]bool, len(r.shards))
	for i := 0; i < len(r.vhash) && tried < len(r.shards); i++ {
		si := r.vshard[(start+i)%len(r.vhash)]
		if seen[si] {
			continue
		}
		seen[si] = true
		tried++
		if eligible == nil || eligible(r.shards[si]) {
			return r.shards[si], true
		}
	}
	return "", false
}
