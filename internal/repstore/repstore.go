// Package repstore replicates a snapshot store across N independent
// child stores with quorum reads and writes, so durable session state
// survives the loss of any minority of replicas — a dead disk, a
// partitioned replica, or a corrupted file — without a shared
// filesystem.
//
// The replication model is deliberately simple, leaning on two
// properties the serving layer already guarantees:
//
//   - Snapshots carry a monotone progress key (iterations, history
//     length) — the same key the stale-write fence orders by — so
//     "newest" is well defined without vector clocks: a session's
//     durable state only grows, and byte-identical determinism makes
//     equal progress equal state.
//   - Snapshots are self-validating (Seal/Verify CRC framing), so a
//     corrupt replica copy is detected at read time and excluded from
//     the freshness vote instead of being served.
//
// A write needs W acks, a read needs R = N-W+1 version-bearing replies
// (found or not-found; corrupt and I/O errors don't count), so W+R > N
// and every read quorum intersects every committed write quorum in at
// least one replica holding the freshest acked version. Reads repair
// lagging, missing, or corrupt replicas from the freshest copy in
// place, and a background anti-entropy sweep converges replicas that
// were down when writes happened.
//
// Per-replica health is a consecutive-failure circuit breaker: after
// breakerThreshold consecutive failures the replica is skipped (open)
// for a capped, seeded-jittered backoff, then a single half-open probe
// decides between closing and re-opening with doubled backoff. A dead
// replica therefore costs a bounded number of doomed operations, and a
// healed one is reintegrated within one backoff interval plus a sweep.
//
// The wrapper is generic over the snapshot type (the same Inner shape
// internal/faultstore wraps), so it does not import the serving layer:
// Replicated[server.Snapshot] satisfies server.Store, and tests drive
// it with faultstore-wrapped in-memory children.
package repstore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/randx"
)

// ErrNoQuorum is the base error of every quorum failure — too few
// replicas acked a write or gave a version-bearing reply to a read.
// Match with errors.Is.
var ErrNoQuorum = errors.New("repstore: quorum not met")

// Replica health states surfaced by ReplicaHealth.
const (
	StateHealthy  = "healthy"   // breaker closed: operations flow
	StateOpen     = "open"      // breaker open: replica skipped until backoff expires
	StateHalfOpen = "half-open" // single probe in flight decides open vs closed
)

// Inner is the store shape a replica must provide — structurally the
// serving layer's Store interface, parameterized by snapshot type so
// this package does not import it. faultstore.Store[S] matches, so
// tests can interpose fault injection per replica.
type Inner[S any] interface {
	Put(snap *S) error
	Get(id string) (*S, error)
	Delete(id string) (existed bool, err error)
	List() ([]string, error)
}

// Member names one replica of the set.
type Member[S any] struct {
	ID    string
	Store Inner[S]
}

// Config parameterizes a Replicated store over its snapshot type.
type Config[S any] struct {
	// WriteQuorum is W: acks required for a Put or Delete to succeed.
	// 0 means majority (N/2+1). Reads need R = N-W+1 version-bearing
	// replies, so W+R > N always holds.
	WriteQuorum int

	// ID extracts the snapshot's id — the replication key. Required.
	ID func(*S) string
	// Progress extracts the monotone progress key ordering versions of
	// one snapshot: compared lexicographically, larger is newer. For
	// server snapshots this is (iterations, history length) — the
	// stale-write fence's key. Required.
	Progress func(*S) (int64, int64)
	// Verify validates a snapshot read from a replica; an error marks
	// the copy unusable (and, if it wraps Corrupt, repairable). Nil
	// trusts every successful Get.
	Verify func(*S) error

	// NotFound is the sentinel child stores return for absent ids, and
	// the sentinel Get returns when a read quorum agrees the id is
	// absent. Required.
	NotFound error
	// Corrupt, when non-nil, tags integrity failures: a child Get (or
	// Verify) error wrapping it counts the replica as alive-but-corrupt
	// — excluded from the freshness vote, queued for read-repair — not
	// as a replica failure.
	Corrupt error

	// Circuit-breaker tuning. A breaker opens after breakerThreshold
	// consecutive failures. Zero values mean: first open interval
	// 250ms, doubling to a 5s cap, jittered up to +50% from a source
	// seeded with Seed (0 behaves as 1).
	BreakerBase time.Duration
	BreakerCap  time.Duration
	Seed        int64

	// SweepInterval runs the anti-entropy sweep in the background; 0
	// leaves sweeping to explicit Sweep calls.
	SweepInterval time.Duration
}

const (
	// breakerThreshold is the consecutive-failure count that opens a
	// replica's breaker.
	breakerThreshold   = 3
	defaultBreakerBase = 250 * time.Millisecond
	defaultBreakerCap  = 5 * time.Second
	// deleteTTL bounds how long a Delete suppresses resurrection of its
	// id by read-repair or sweep (a replica that was down across the
	// delete still holds the snapshot). Tombstones are process memory,
	// so the bound is best-effort across restarts.
	deleteTTL = time.Minute

	lockStripes = 32
)

// ReplicaHealth is one replica's breaker state, surfaced through the
// serving layer's readyz so an operator can tell a dead disk from a
// dead process.
type ReplicaHealth struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// ConsecutiveFailures counts failures since the last success; it
	// keeps growing while the breaker is open (each failed probe).
	ConsecutiveFailures int    `json:"consecutiveFailures,omitempty"`
	LastError           string `json:"lastError,omitempty"`
}

// Stats counts quorum-level operations, for tests and debugging.
type Stats struct {
	Puts, Gets, Deletes, Lists int
	// PutQuorumFailures / GetQuorumFailures count operations that could
	// not assemble a quorum.
	PutQuorumFailures int
	GetQuorumFailures int
	// Repairs counts replica copies rewritten (or deleted) by
	// read-repair and the anti-entropy sweep.
	Repairs int
	// Sweeps counts completed anti-entropy passes.
	Sweeps int
}

type breakerState int

const (
	stateClosed breakerState = iota
	stateOpen
	stateHalfOpen
)

// replica pairs a child store with its circuit breaker.
type replica[S any] struct {
	id    string
	store Inner[S]

	mu        sync.Mutex
	state     breakerState
	fails     int // consecutive failures
	backoff   time.Duration
	openUntil time.Time
	probing   bool // half-open: the single probe slot is taken
	lastErr   error
}

// allow reports whether an operation may be attempted now. An open
// breaker whose backoff expired moves to half-open and grants exactly
// one probe; further calls are refused until the probe reports.
func (r *replica[S]) allow(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case stateClosed:
		return true
	case stateOpen:
		if now.Before(r.openUntil) {
			return false
		}
		r.state = stateHalfOpen
		r.probing = true
		return true
	default: // half-open
		if r.probing {
			return false
		}
		r.probing = true
		return true
	}
}

// success closes the breaker.
func (r *replica[S]) success() {
	r.mu.Lock()
	r.state = stateClosed
	r.fails = 0
	r.backoff = 0
	r.probing = false
	r.lastErr = nil
	r.mu.Unlock()
}

// failure records a failed operation. Crossing the threshold opens the
// breaker; a failed half-open probe re-opens it with doubled backoff.
// jitter is sampled outside the replica lock (shared rng).
func (r *replica[S]) failure(err error, now time.Time, base, cap time.Duration, jitter func(time.Duration) time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails++
	r.lastErr = err
	switch r.state {
	case stateHalfOpen:
		r.probing = false
		r.backoff *= 2
		if r.backoff > cap {
			r.backoff = cap
		}
		r.state = stateOpen
		r.openUntil = now.Add(r.backoff + jitter(r.backoff))
	case stateClosed:
		if r.fails >= breakerThreshold {
			r.state = stateOpen
			r.backoff = base
			r.openUntil = now.Add(base + jitter(base))
		}
	}
	// stateOpen: a straggler from before the breaker opened; the open
	// interval already covers it.
}

// lastError returns the most recent failure (nil when healthy).
func (r *replica[S]) lastError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

func (r *replica[S]) health() ReplicaHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := ReplicaHealth{ID: r.id, ConsecutiveFailures: r.fails}
	switch r.state {
	case stateClosed:
		h.State = StateHealthy
	case stateOpen:
		h.State = StateOpen
	default:
		h.State = StateHalfOpen
	}
	if r.lastErr != nil {
		h.LastError = r.lastErr.Error()
	}
	return h
}

// Replicated is a quorum-replicated store over N child stores. It
// satisfies the serving layer's Store interface when S is its snapshot
// type. Safe for concurrent use.
type Replicated[S any] struct {
	cfg      Config[S]
	replicas []*replica[S]
	w, r     int

	rngMu sync.Mutex
	rng   *randx.Source

	// locks serialize Put / Get-with-repair / sweep per snapshot id so
	// a repair never races a newer write back to an older version.
	locks [lockStripes]sync.Mutex

	// deleted holds delete tombstones: id → delete time. Read-repair
	// and sweep propagate deletes for tombstoned ids instead of
	// resurrecting copies from replicas that missed the delete.
	delMu   sync.Mutex
	deleted map[string]time.Time

	statsMu sync.Mutex
	stats   Stats

	now func() time.Time // injectable clock (breaker tests)

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// New builds a Replicated store over the given members. It validates
// the quorum math: 1 ≤ W ≤ N (default majority), leaving R = N-W+1.
func New[S any](cfg Config[S], members ...Member[S]) (*Replicated[S], error) {
	n := len(members)
	if n == 0 {
		return nil, errors.New("repstore: no replicas")
	}
	if cfg.ID == nil || cfg.Progress == nil || cfg.NotFound == nil {
		return nil, errors.New("repstore: Config.ID, Config.Progress and Config.NotFound are required")
	}
	if cfg.WriteQuorum == 0 {
		cfg.WriteQuorum = n/2 + 1
	}
	if cfg.WriteQuorum < 1 || cfg.WriteQuorum > n {
		return nil, fmt.Errorf("repstore: write quorum %d out of range [1, %d]", cfg.WriteQuorum, n)
	}
	if cfg.BreakerBase <= 0 {
		cfg.BreakerBase = defaultBreakerBase
	}
	if cfg.BreakerCap < cfg.BreakerBase {
		cfg.BreakerCap = defaultBreakerCap
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	s := &Replicated[S]{
		cfg:     cfg,
		w:       cfg.WriteQuorum,
		r:       n - cfg.WriteQuorum + 1,
		rng:     randx.New(seed),
		deleted: map[string]time.Time{},
		now:     time.Now,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, m := range members {
		if m.Store == nil || m.ID == "" {
			return nil, errors.New("repstore: member with empty ID or nil Store")
		}
		if seen[m.ID] {
			return nil, fmt.Errorf("repstore: duplicate replica id %q", m.ID)
		}
		seen[m.ID] = true
		s.replicas = append(s.replicas, &replica[S]{id: m.ID, store: m.Store})
	}
	if cfg.SweepInterval > 0 {
		go s.sweeper(cfg.SweepInterval)
	} else {
		close(s.done)
	}
	return s, nil
}

// Close stops the background sweeper (if any). The child stores are
// not closed — they were handed in open and stay owned by the caller.
func (s *Replicated[S]) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
	<-s.done
}

func (s *Replicated[S]) sweeper(interval time.Duration) {
	defer close(s.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Sweep()
		}
	}
}

// Quorum reports the configured write quorum W, derived read quorum R,
// and replica count N.
func (s *Replicated[S]) Quorum() (w, r, n int) {
	return s.w, s.r, len(s.replicas)
}

// ReplicaHealth reports each replica's breaker state in member order.
func (s *Replicated[S]) ReplicaHealth() []ReplicaHealth {
	out := make([]ReplicaHealth, len(s.replicas))
	for i, r := range s.replicas {
		out[i] = r.health()
	}
	return out
}

// Stats returns a copy of the operation counters.
func (s *Replicated[S]) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

func (s *Replicated[S]) lockFor(id string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &s.locks[h.Sum32()%lockStripes]
}

func (s *Replicated[S]) jitter(d time.Duration) time.Duration {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return time.Duration(s.rng.Int63n(int64(d)/2 + 1))
}

// attempt runs op against one replica if its breaker allows, recording
// the outcome. Returns (skipped=true) when the breaker refused.
func (s *Replicated[S]) attempt(r *replica[S], op func(Inner[S]) error) (err error, skipped bool) {
	now := s.now()
	if !r.allow(now) {
		return r.lastError(), true
	}
	err = op(r.store)
	if err != nil {
		s.replicaFailed(r, err)
	} else {
		r.success()
	}
	return err, false
}

func (s *Replicated[S]) replicaFailed(r *replica[S], err error) {
	r.failure(err, s.now(), s.cfg.BreakerBase, s.cfg.BreakerCap, s.jitter)
}

// fanout runs op on every replica concurrently and counts acks.
func (s *Replicated[S]) fanout(op func(Inner[S]) error) (acks int, firstErr error) {
	errs := make([]error, len(s.replicas))
	oks := make([]bool, len(s.replicas))
	var wg sync.WaitGroup
	for i, r := range s.replicas {
		wg.Add(1)
		go func(i int, r *replica[S]) {
			defer wg.Done()
			err, _ := s.attempt(r, op)
			errs[i] = err
			oks[i] = err == nil
		}(i, r)
	}
	wg.Wait()
	for i := range oks {
		if oks[i] {
			acks++
		} else if firstErr == nil && errs[i] != nil {
			firstErr = errs[i]
		}
	}
	return acks, firstErr
}

// Put writes the snapshot to all replicas and succeeds once W acked.
// Replicas that missed the write (down, broken) converge later via
// read-repair or the anti-entropy sweep.
func (s *Replicated[S]) Put(snap *S) error {
	id := s.cfg.ID(snap)
	l := s.lockFor(id)
	l.Lock()
	defer l.Unlock()
	s.statsMu.Lock()
	s.stats.Puts++
	s.statsMu.Unlock()
	s.delMu.Lock()
	delete(s.deleted, id) // a new write supersedes any tombstone
	s.delMu.Unlock()
	acks, firstErr := s.fanout(func(in Inner[S]) error { return in.Put(snap) })
	if acks >= s.w {
		return nil
	}
	s.statsMu.Lock()
	s.stats.PutQuorumFailures++
	s.statsMu.Unlock()
	return fmt.Errorf("%w: put %s: %d/%d acks (need %d): %v",
		ErrNoQuorum, id, acks, len(s.replicas), s.w, firstErr)
}

// readResult is one replica's answer to a Get.
type readResult[S any] struct {
	snap    *S    // non-nil: found and (if configured) verified
	err     error // classification below
	absent  bool  // replied NotFound
	corrupt bool  // replied, but the copy failed integrity
	skipped bool  // breaker open
}

// Get returns the freshest copy a read quorum can prove, repairing
// lagging, missing, or corrupt replicas from it in passing. It returns
// Config.NotFound when a quorum agrees the id is absent, and an error
// wrapping ErrNoQuorum when too few replicas gave version-bearing
// replies.
func (s *Replicated[S]) Get(id string) (*S, error) {
	l := s.lockFor(id)
	l.Lock()
	defer l.Unlock()
	s.statsMu.Lock()
	s.stats.Gets++
	s.statsMu.Unlock()
	snap, _, err := s.getRepairLocked(id)
	return snap, err
}

// tombstoned reports whether id was deleted within deleteTTL, dropping
// an expired tombstone.
func (s *Replicated[S]) tombstoned(id string) bool {
	s.delMu.Lock()
	defer s.delMu.Unlock()
	t, ok := s.deleted[id]
	if !ok {
		return false
	}
	if s.now().Sub(t) > deleteTTL {
		delete(s.deleted, id)
		return false
	}
	return true
}

// getRepairLocked does the quorum read + read-repair for one id. The
// caller holds the id's stripe lock. Returns the repaired-copy count
// for the sweep's convergence accounting.
func (s *Replicated[S]) getRepairLocked(id string) (*S, int, error) {
	if s.tombstoned(id) {
		// The id was deleted recently; replicas that missed the delete
		// must not resurrect it. Propagate instead of repairing.
		return nil, s.propagateDeleteLocked(id), s.cfg.NotFound
	}
	res := make([]readResult[S], len(s.replicas))
	var wg sync.WaitGroup
	for i, r := range s.replicas {
		wg.Add(1)
		go func(i int, r *replica[S]) {
			defer wg.Done()
			now := s.now()
			if !r.allow(now) {
				res[i] = readResult[S]{skipped: true, err: r.lastError()}
				return
			}
			snap, err := r.store.Get(id)
			if err == nil && s.cfg.Verify != nil {
				err = s.cfg.Verify(snap)
			}
			switch {
			case err == nil:
				r.success()
				res[i] = readResult[S]{snap: snap}
			case errors.Is(err, s.cfg.NotFound):
				r.success() // the replica answered; absence is an answer
				res[i] = readResult[S]{absent: true, err: err}
			case s.cfg.Corrupt != nil && errors.Is(err, s.cfg.Corrupt):
				r.success() // alive, but its copy is bad — repairable
				res[i] = readResult[S]{corrupt: true, err: err}
			default:
				s.replicaFailed(r, err)
				res[i] = readResult[S]{err: err}
			}
		}(i, r)
	}
	wg.Wait()

	// Freshness vote: only version-bearing replies (found or absent)
	// count toward R. A corrupt reply must not — the replica can no
	// longer vouch for which version it holds, and counting it could
	// let a stale minority version win the vote.
	answered := 0
	var freshest *S
	var fi1, fi2 int64
	var firstErr error
	for i := range res {
		r := &res[i]
		switch {
		case r.snap != nil:
			answered++
			p1, p2 := s.cfg.Progress(r.snap)
			if freshest == nil || p1 > fi1 || (p1 == fi1 && p2 > fi2) {
				freshest, fi1, fi2 = r.snap, p1, p2
			}
		case r.absent:
			answered++
		default:
			if firstErr == nil && r.err != nil {
				firstErr = r.err
			}
		}
	}
	if answered < s.r {
		s.statsMu.Lock()
		s.stats.GetQuorumFailures++
		s.statsMu.Unlock()
		return nil, 0, fmt.Errorf("%w: get %s: %d/%d version-bearing replies (need %d): %v",
			ErrNoQuorum, id, answered, len(s.replicas), s.r, firstErr)
	}
	if freshest == nil {
		// Quorum says absent. Any corrupt copy is unacked garbage with
		// no fresh source to repair from — delete it so replicas
		// converge on absence instead of resweeping it forever.
		cleaned := 0
		for i, r := range s.replicas {
			if !res[i].corrupt {
				continue
			}
			err, skipped := s.attempt(r, func(in Inner[S]) error {
				_, derr := in.Delete(id)
				return derr
			})
			if err == nil && !skipped {
				cleaned++
			}
		}
		if cleaned > 0 {
			s.statsMu.Lock()
			s.stats.Repairs += cleaned
			s.statsMu.Unlock()
		}
		return nil, cleaned, s.cfg.NotFound
	}

	// Read-repair: rewrite every replica that answered with a missing,
	// corrupt, or older copy. Replicas that failed or were skipped are
	// left to the breaker + sweep.
	repaired := 0
	for i, r := range s.replicas {
		rr := &res[i]
		if rr.skipped || (rr.err != nil && !rr.absent && !rr.corrupt) {
			continue
		}
		if rr.snap != nil {
			p1, p2 := s.cfg.Progress(rr.snap)
			if p1 == fi1 && p2 == fi2 {
				continue // already fresh
			}
		}
		if err, skipped := s.attempt(r, func(in Inner[S]) error { return in.Put(freshest) }); err == nil && !skipped {
			repaired++
		}
	}
	if repaired > 0 {
		s.statsMu.Lock()
		s.stats.Repairs += repaired
		s.statsMu.Unlock()
	}
	return freshest, repaired, nil
}

// propagateDeleteLocked re-deletes id on every replica (best-effort)
// and returns how many deletions actually removed a copy.
func (s *Replicated[S]) propagateDeleteLocked(id string) int {
	removed := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, r := range s.replicas {
		wg.Add(1)
		go func(r *replica[S]) {
			defer wg.Done()
			var existed bool
			err, skipped := s.attempt(r, func(in Inner[S]) error {
				var derr error
				existed, derr = in.Delete(id)
				return derr
			})
			if err == nil && !skipped && existed {
				mu.Lock()
				removed++
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	if removed > 0 {
		s.statsMu.Lock()
		s.stats.Repairs += removed
		s.statsMu.Unlock()
	}
	return removed
}

// Delete removes the snapshot from all replicas, succeeding once W
// acked, and leaves a tombstone so repair paths don't resurrect the id
// from a replica that missed the delete. Reports whether any replica
// held a copy.
func (s *Replicated[S]) Delete(id string) (bool, error) {
	l := s.lockFor(id)
	l.Lock()
	defer l.Unlock()
	s.statsMu.Lock()
	s.stats.Deletes++
	s.statsMu.Unlock()
	s.delMu.Lock()
	s.deleted[id] = s.now()
	s.delMu.Unlock()
	existedAny := false
	var mu sync.Mutex
	acks, firstErr := s.fanout(func(in Inner[S]) error {
		existed, err := in.Delete(id)
		if err == nil && existed {
			mu.Lock()
			existedAny = true
			mu.Unlock()
		}
		return err
	})
	if acks >= s.w {
		return existedAny, nil
	}
	return false, fmt.Errorf("%w: delete %s: %d/%d acks (need %d): %v",
		ErrNoQuorum, id, acks, len(s.replicas), s.w, firstErr)
}

// List returns the union of replica listings (sorted, tombstoned ids
// excluded), requiring R successful listings so a minority of lagging
// replicas cannot hide a quorum-written id.
func (s *Replicated[S]) List() ([]string, error) {
	s.statsMu.Lock()
	s.stats.Lists++
	s.statsMu.Unlock()
	ids, ok, err := s.listUnion()
	if ok < s.r {
		return nil, fmt.Errorf("%w: list: %d/%d replies (need %d): %v",
			ErrNoQuorum, ok, len(s.replicas), s.r, err)
	}
	return ids, nil
}

// listUnion collects the union of ids across replicas, counting how
// many replicas answered.
func (s *Replicated[S]) listUnion() (ids []string, ok int, firstErr error) {
	lists := make([][]string, len(s.replicas))
	errs := make([]error, len(s.replicas))
	var wg sync.WaitGroup
	for i, r := range s.replicas {
		wg.Add(1)
		go func(i int, r *replica[S]) {
			defer wg.Done()
			errs[i], _ = s.attempt(r, func(in Inner[S]) error {
				var lerr error
				lists[i], lerr = in.List()
				return lerr
			})
		}(i, r)
	}
	wg.Wait()
	set := map[string]bool{}
	for i := range lists {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		ok++
		for _, id := range lists[i] {
			set[id] = true
		}
	}
	for id := range set {
		if !s.tombstoned(id) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, ok, firstErr
}

// Sweep runs one anti-entropy pass: for every id any replica knows
// (plus live tombstones), perform a quorum read with read-repair (or
// delete propagation). Returns the number of replica copies repaired —
// a converged, healthy set sweeps to 0. Best-effort: replicas that are
// down stay behind their breakers and converge on a later pass.
func (s *Replicated[S]) Sweep() (repaired int) {
	ids, _, _ := s.listUnion()
	// Tombstoned ids are excluded from the union but still need their
	// deletes pushed to replicas that were down.
	s.delMu.Lock()
	for id := range s.deleted {
		ids = append(ids, id)
	}
	s.delMu.Unlock()
	sort.Strings(ids)
	prev := ""
	for _, id := range ids {
		if id == prev {
			continue
		}
		prev = id
		l := s.lockFor(id)
		l.Lock()
		if s.tombstoned(id) {
			repaired += s.propagateDeleteLocked(id)
		} else {
			_, n, _ := s.getRepairLocked(id)
			repaired += n
		}
		l.Unlock()
	}
	s.statsMu.Lock()
	s.stats.Sweeps++
	s.statsMu.Unlock()
	return repaired
}
