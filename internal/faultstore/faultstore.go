// Package faultstore wraps a snapshot store with deterministic,
// seedable failure injection — the test double every resilience layer
// above the store is exercised against. It simulates the failure modes
// a real disk or network store exhibits:
//
//   - hard failures of the Nth Put/Get (or a seeded failure rate), for
//     circuit-breaker and degraded-mode logic;
//   - torn writes: the Nth Put persists a mangled snapshot to the
//     inner store and then reports failure, modelling a crash mid-write
//     on a store without atomic rename;
//   - injected latency per operation, for timeout paths;
//   - an imperative Break/Heal switch, for scripting outages in tests
//     (the store "goes down", everything fails, then it "comes back").
//
// The wrapper is generic over the snapshot type so it does not import
// the serving layer: faultstore.Store[server.Snapshot] satisfies
// server.Store, and the same machinery can wrap any future store whose
// methods match Inner.
package faultstore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/randx"
)

// ErrInjected is the base error of every injected failure; match it
// with errors.Is to distinguish injected faults from real ones.
var ErrInjected = errors.New("faultstore: injected failure")

// Inner is the store shape the wrapper accepts — structurally the
// serving layer's Store interface, parameterized by snapshot type.
type Inner[S any] interface {
	Put(snap *S) error
	Get(id string) (*S, error)
	Delete(id string) (existed bool, err error)
	List() ([]string, error)
}

// Plan is a deterministic failure schedule. Zero value = no faults.
// Nth-operation indices are 1-based and count calls on this wrapper
// since construction; rate-based injection draws from a generator
// seeded by Seed, so a given (Plan, call sequence) always fails the
// same calls.
type Plan struct {
	// Seed seeds the rate-based injectors (0 behaves as 1).
	Seed int64
	// FailPuts / FailGets fail the listed 1-based call indices.
	FailPuts []int
	FailGets []int
	// TornPuts: the listed Puts write a mangled snapshot (see
	// Store.Mangle) to the inner store, then report failure — a torn
	// write that persisted garbage.
	TornPuts []int
	// PutFailRate / GetFailRate fail that fraction of calls, drawn
	// deterministically from Seed.
	PutFailRate float64
	GetFailRate float64
	// Latency is added to every operation before it runs.
	Latency time.Duration
}

// Stats counts operations seen and failures injected, so tests can
// assert their faults actually fired instead of passing vacuously.
type Stats struct {
	Puts, Gets, Deletes, Lists int
	FailedPuts, FailedGets     int
	TornPuts                   int
	// Mangled counts torn Puts that actually wrote a mangled snapshot
	// to the inner store (TornPuts entries with a nil Mangle fail hard
	// without writing, and don't count here).
	Mangled int
}

// Injected returns the total number of injected failures across all
// operation kinds — a convenient non-vacuity assertion for tests.
func (st Stats) Injected() int {
	return st.FailedPuts + st.FailedGets
}

// Store wraps an Inner with fault injection. Safe for concurrent use
// (the injection bookkeeping is locked; the inner store provides its
// own guarantees).
type Store[S any] struct {
	inner Inner[S]
	plan  Plan

	// Mangle corrupts a snapshot for torn-write injection: it receives
	// a shallow copy and returns what is actually written. Nil disables
	// tearing (TornPuts entries fail hard instead).
	Mangle func(snap S) S

	mu     sync.Mutex
	rng    *randx.Source
	stats  Stats
	broken error // non-nil: every op fails with this (Break/Heal)
}

// New wraps inner with the given failure plan.
func New[S any](inner Inner[S], plan Plan) *Store[S] {
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	return &Store[S]{inner: inner, plan: plan, rng: randx.New(seed)}
}

// Break makes every subsequent operation fail with err (ErrInjected if
// nil) until Heal — the imperative outage switch.
func (s *Store[S]) Break(err error) {
	if err == nil {
		err = ErrInjected
	}
	s.mu.Lock()
	s.broken = err
	s.mu.Unlock()
}

// Heal ends a Break outage.
func (s *Store[S]) Heal() {
	s.mu.Lock()
	s.broken = nil
	s.mu.Unlock()
}

// Broken reports whether the store is in a Break outage.
func (s *Store[S]) Broken() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken != nil
}

// Stats returns a copy of the operation counters.
func (s *Store[S]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func contains(xs []int, n int) bool {
	for _, x := range xs {
		if x == n {
			return true
		}
	}
	return false
}

// putDecision classifies one Put call under the lock: the call index
// is consumed exactly once so concurrent callers see a consistent
// schedule.
type decision int

const (
	pass decision = iota
	fail
	torn
)

func (s *Store[S]) decidePut() (decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Puts++
	if s.broken != nil {
		s.stats.FailedPuts++
		return fail, s.broken
	}
	n := s.stats.Puts
	switch {
	case contains(s.plan.TornPuts, n):
		s.stats.FailedPuts++
		s.stats.TornPuts++
		return torn, fmt.Errorf("%w: torn put #%d", ErrInjected, n)
	case contains(s.plan.FailPuts, n),
		s.plan.PutFailRate > 0 && s.rng.Float64() < s.plan.PutFailRate:
		s.stats.FailedPuts++
		return fail, fmt.Errorf("%w: put #%d", ErrInjected, n)
	}
	return pass, nil
}

// Put applies the plan: pass through, fail outright, or tear (persist
// a mangled snapshot, then report failure).
func (s *Store[S]) Put(snap *S) error {
	s.sleep()
	d, err := s.decidePut()
	switch d {
	case fail:
		return err
	case torn:
		if s.Mangle != nil {
			mangled := s.Mangle(*snap)
			_ = s.inner.Put(&mangled) // the tear persists; the error still surfaces
			s.mu.Lock()
			s.stats.Mangled++
			s.mu.Unlock()
		}
		return err
	}
	return s.inner.Put(snap)
}

// Get applies the plan, then delegates.
func (s *Store[S]) Get(id string) (*S, error) {
	s.sleep()
	s.mu.Lock()
	s.stats.Gets++
	n := s.stats.Gets
	broken := s.broken
	injected := broken != nil ||
		contains(s.plan.FailGets, n) ||
		(s.plan.GetFailRate > 0 && s.rng.Float64() < s.plan.GetFailRate)
	if injected {
		s.stats.FailedGets++
	}
	s.mu.Unlock()
	if injected {
		if broken != nil {
			return nil, broken
		}
		return nil, fmt.Errorf("%w: get #%d", ErrInjected, n)
	}
	return s.inner.Get(id)
}

// Delete fails only during a Break outage; targeted Delete faults have
// no consumer yet.
func (s *Store[S]) Delete(id string) (bool, error) {
	s.sleep()
	s.mu.Lock()
	s.stats.Deletes++
	broken := s.broken
	s.mu.Unlock()
	if broken != nil {
		return false, broken
	}
	return s.inner.Delete(id)
}

// List fails only during a Break outage.
func (s *Store[S]) List() ([]string, error) {
	s.sleep()
	s.mu.Lock()
	s.stats.Lists++
	broken := s.broken
	s.mu.Unlock()
	if broken != nil {
		return nil, broken
	}
	return s.inner.List()
}

func (s *Store[S]) sleep() {
	if s.plan.Latency > 0 {
		time.Sleep(s.plan.Latency)
	}
}
