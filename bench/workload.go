package main

import (
	"fmt"

	"repro/internal/server"
)

type storeKind int

const (
	memStore storeKind = iota
	dirStore
	replicatedStore
)

// workload is one traffic mix. Why each one exists, and which layer it
// stresses, is recorded in BENCHMARK.json and README.md.
type workload struct {
	name    string
	dataset string
	depth   int
	iters   int  // mine→commit iterations per session
	spread  bool // spread preview on every mine; commits take both patterns
	store   storeKind
	shards  int  // >0: requests go through a cluster.Router over this many shards
	churn   bool // one shared dataset seed, and a handoff before the second mine
	oracle  int  // sessions the correctness oracle replays
}

var workloads = []workload{
	{name: "explore-crime", dataset: "crime", depth: 4, iters: 8, store: dirStore, oracle: 4},
	{name: "spread-water", dataset: "water", depth: 1, iters: 6, spread: true, store: memStore, oracle: 8},
	{name: "commit-replicated", dataset: "synthetic", depth: 2, iters: 12, store: replicatedStore, shards: 2, oracle: 16},
	{name: "session-churn", dataset: "crime", depth: 1, iters: 2, store: dirStore, churn: true, oracle: 16},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// createRequest is session i's create request: a pure function of the
// run seed, so the same seed sends the server the same inputs. The id is
// pinned by the client, which makes shard placement under the router a
// function of the seed too. Beam settings are the paper's defaults
// (width 40, top-150, 4 split points), spelled out so the oracle replay
// configures its miner from the request alone.
func (w workload) createRequest(seed int64, i int) server.CreateRequest {
	dsKey := i
	if w.churn {
		dsKey = 0
	}
	return server.CreateRequest{
		ID:        fmt.Sprintf("b%d-%06d", uint64(seed), i),
		Dataset:   w.dataset,
		Seed:      mix(seed, dsKey),
		BeamWidth: 40,
		Depth:     w.depth,
		TopK:      150,
		NumSplits: 4,
	}
}

// mix derives a positive dataset seed from the run seed and a session
// index (splitmix64).
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 1
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z%(1<<31-1)) + 1
}
