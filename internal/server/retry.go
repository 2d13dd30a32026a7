package server

import (
	"sync"
	"sync/atomic"
	"time"
)

// degradedRetryAfter is the retry hint the snapshot endpoint sends
// with its 503 while persistence is degraded.
const degradedRetryAfter = time.Second

// Persistence states surfaced in API responses and readiness probes.
const (
	PersistenceOK       = "ok"
	PersistenceDegraded = "degraded"
)

// storeHealth is the degraded-mode state machine. Transitions:
// healthy → degraded when a Put fails; degraded → healthy when any
// later Put succeeds. The flag is read lock-free on request paths.
type storeHealth struct {
	degraded atomic.Bool

	mu      sync.Mutex
	lastErr error
}

func (h *storeHealth) state() string {
	if h.degraded.Load() {
		return PersistenceDegraded
	}
	return PersistenceOK
}

// markOK records a successful Put, healing degraded mode.
func (h *storeHealth) markOK() {
	if h.degraded.Swap(false) {
		h.mu.Lock()
		h.lastErr = nil
		h.mu.Unlock()
	}
}

// markFailed records a failed Put, entering degraded mode.
func (h *storeHealth) markFailed(err error) {
	h.mu.Lock()
	h.lastErr = err
	h.mu.Unlock()
	h.degraded.Store(true)
}

// lastError returns the error that entered (or kept) degraded mode.
func (h *storeHealth) lastError() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastErr
}

// storePut is the single write path to the session store: every
// persist (create, commit, evict, explicit snapshot, drain flush) goes
// through it so the degraded-mode transitions are applied uniformly.
// It makes exactly one store.Put and never sleeps: a replicated
// store's per-replica circuit breakers are the only back-off layer,
// and a failed write is reported at once rather than retried with the
// caller's session locks held. The caller decides whether a failure is
// fatal (explicit snapshot) or best-effort (create).
func (s *Server) storePut(snap *Snapshot) error {
	// Stale-write fence (cluster migration safety, DESIGN.md §12). A
	// session's durable state only grows — iterations and history are
	// append-only, and byte-identical determinism makes equal progress
	// equal state — so a Put carrying *less* progress than the stored
	// snapshot can only be a stale copy: typically an idle replica of a
	// session whose ownership moved to another shard (which advanced it
	// there) being LRU-evicted here. Dropping the write is success, not
	// failure — the store already holds a strictly fresher version. The
	// read-compare-write is not atomic across processes; the fence
	// closes the common lost-update window (idle eviction after
	// handoff), while the router's one-owner-at-a-time discipline
	// prevents concurrent divergent writers in the first place.
	if prev, err := s.store.Get(snap.ID); err == nil {
		pi, ph := prev.ProgressKey()
		ni, nh := snap.ProgressKey()
		if pi > ni || (pi == ni && ph > nh) {
			return nil
		}
	}
	if err := s.store.Put(snap); err != nil {
		s.health.markFailed(err)
		return err
	}
	s.health.markOK()
	return nil
}
