package server

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/repstore"
)

// This file wires internal/repstore to the serving layer's snapshot
// types: a quorum-replicated store over N DirStore directories, each
// ideally on its own disk, so durable session state survives the loss
// of any minority of them (DESIGN.md §13).

// ProgressKey returns the snapshot's monotone progress key: a
// session's durable state only grows (iterations and history are
// append-only), and byte-identical determinism makes equal progress
// equal state, so comparing (iterations, history length)
// lexicographically orders any two versions of one session. The
// stale-write fence (storePut) and the replicated store's newest-wins
// vote both order by this key.
func (s *Snapshot) ProgressKey() (iterations, history int64) {
	return int64(s.Iterations), int64(len(s.History))
}

// NewReplicatedDirStore builds a quorum-replicated session store over
// one DirStore per directory. writeQuorum 0 means majority; reads need
// len(dirs)-W+1 replies. sweepInterval runs the anti-entropy sweep in
// the background (0 disables it; tests call Sweep explicitly).
//
// Directories that fail to open are tolerated as broken replicas
// (retried per operation, skipped by the breaker once it opens) as
// long as at least one opens — a node whose every replica volume is
// missing is misconfigured, not degraded.
//
// The store sets no Config.Verify: every member is a DirStore, whose
// Get already verifies each snapshot it reads and answers ErrCorrupt
// (quarantining the file) for one that fails.
func NewReplicatedDirStore(dirs []string, writeQuorum int, sweepInterval time.Duration) (*repstore.Replicated[Snapshot], error) {
	if len(dirs) < 2 {
		return nil, fmt.Errorf("server: replicated store needs >= 2 dirs, got %d", len(dirs))
	}
	members := make([]repstore.Member[Snapshot], len(dirs))
	opened := 0
	var openErrs []string
	for i, dir := range dirs {
		child := &DirStore{dir: dir}
		if err := child.open(); err == nil {
			opened++
		} else {
			openErrs = append(openErrs, err.Error())
		}
		members[i] = repstore.Member[Snapshot]{ID: dir, Store: child}
	}
	if opened == 0 {
		return nil, fmt.Errorf("server: no replica dir could be opened: %s", strings.Join(openErrs, "; "))
	}
	return repstore.New(repstore.Config[Snapshot]{
		WriteQuorum:   writeQuorum,
		ID:            func(s *Snapshot) string { return s.ID },
		Progress:      (*Snapshot).ProgressKey,
		NotFound:      ErrNotFound,
		Corrupt:       ErrCorrupt,
		SweepInterval: sweepInterval,
	}, members...)
}
