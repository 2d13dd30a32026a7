package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/repstore"
)

// ReasonReplicaDegraded is the non-fatal readyz warning emitted when a
// replicated store has lost replicas but still meets its write quorum:
// serving is unaffected (Ready stays true), but the operator is one
// more failure away from degraded mode and should replace the disk.
const ReasonReplicaDegraded = "store_replica_degraded"

// replicaHealthStore is implemented by replicated stores
// (repstore.Replicated); single-backend stores don't report per-replica
// health.
type replicaHealthStore interface {
	ReplicaHealth() []repstore.ReplicaHealth
}

// Lifecycle endpoints: the handles an orchestrator (or an operator's
// shutdown script) needs to run the server safely.
//
//	GET  /api/v1/healthz   liveness — the process answers requests
//	GET  /api/v1/readyz    readiness — should this replica take traffic
//	POST /api/v1/drain     graceful quiesce — stop intake, flush sessions
//
// healthz is always 200 while the process serves: degraded persistence
// is a readiness problem, not a liveness one (the server still answers
// from memory). readyz is 503 while draining, while the store is
// degraded, or while the mine queue is saturated — all states where
// new traffic is better sent elsewhere.

// drainDefaultTimeout bounds a drain request that does not pass
// ?timeoutMs; drainMaxTimeout caps client-supplied values.
const (
	drainDefaultTimeout = 30 * time.Second
	drainMaxTimeout     = 5 * time.Minute
)

// Readiness is the readyz body — exported because it is a wire type
// the cluster router parses to classify shard health. It deliberately
// has no "error" key: a 503 here is a routing signal, not a request
// failure envelope.
type Readiness struct {
	Ready bool `json:"ready"`
	// ShardID names this process (Options.ShardID) so a router or chaos
	// harness can attribute the probe to a specific shard; empty when
	// the server runs without a configured shard id.
	ShardID string `json:"shardId,omitempty"`
	// Persistence is "ok" or "degraded" (see storeHealth).
	Persistence string `json:"persistence"`
	// Pool is the mine-pool load snapshot behind the saturation check.
	Pool jobs.Stats `json:"pool"`
	// Reasons lists why Ready is false; empty when ready.
	Reasons []string `json:"reasons,omitempty"`
	// Warnings lists non-fatal conditions that don't affect Ready —
	// currently only ReasonReplicaDegraded (a replicated store lost
	// replicas but still meets quorum).
	Warnings []string `json:"warnings,omitempty"`
	// Replicas reports per-replica breaker health when the store is
	// replicated (nil otherwise), so an operator can tell a dead disk
	// from a dead process.
	Replicas []repstore.ReplicaHealth `json:"replicas,omitempty"`
}

// DrainReport is the POST /drain response: what was flushed and
// whether the server is now safe to kill (JobsDrained and no Failed
// entries means every committed belief state is durable in the store).
type DrainReport struct {
	Draining bool `json:"draining"`
	// JobsDrained is false when the drain timeout expired with mine
	// jobs still queued or running.
	JobsDrained bool `json:"jobsDrained"`
	// Sessions / Durable count live sessions seen and flushed durably.
	Sessions int `json:"sessions"`
	Durable  int `json:"durable"`
	// Failed lists session ids whose flush did not reach the store —
	// their committed state since the last successful persist would be
	// lost by an immediate kill.
	Failed []string `json:"failed,omitempty"`
	// Persistence is the store health after the flush pass.
	Persistence string `json:"persistence"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]string{"status": "ok"}
	if s.opts.ShardID != "" {
		body["shardId"] = s.opts.ShardID
	}
	WriteJSON(w, http.StatusOK, body)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	if s.health.degraded.Load() {
		msg := "store degraded"
		if err := s.health.lastError(); err != nil {
			msg = fmt.Sprintf("store degraded: %v", err)
		}
		reasons = append(reasons, msg)
	}
	if st.Saturated() {
		reasons = append(reasons, "mine queue full")
	}
	var warnings []string
	var replicas []repstore.ReplicaHealth
	if rh, ok := s.store.(replicaHealthStore); ok {
		replicas = rh.ReplicaHealth()
		unhealthy := 0
		for _, r := range replicas {
			if r.State != repstore.StateHealthy {
				unhealthy++
			}
		}
		// Quorum loss already surfaces through the fatal storeHealth
		// reason above; a minority of broken replicas is a warning only.
		if unhealthy > 0 && !s.health.degraded.Load() {
			warnings = append(warnings, ReasonReplicaDegraded)
		}
	}
	code := http.StatusOK
	if len(reasons) > 0 {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, Readiness{
		Ready:       len(reasons) == 0,
		ShardID:     s.opts.ShardID,
		Persistence: s.health.state(),
		Pool:        st,
		Reasons:     reasons,
		Warnings:    warnings,
		Replicas:    replicas,
	})
}

// handleDrain quiesces the server: ?timeoutMs bounds how long to wait
// for in-flight mine jobs (default 30s, capped at 5m). Always answers
// 200 with the report — a partial drain (jobs still running, some
// flushes failed) is an answer, not an error; the caller decides
// whether to kill anyway.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	timeout := drainDefaultTimeout
	if ms := r.URL.Query().Get("timeoutMs"); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n <= 0 {
			WriteError(w, http.StatusBadRequest, errBadRequest, 0, "bad timeoutMs %q", ms)
			return
		}
		timeout = time.Duration(n) * time.Millisecond
		if timeout > drainMaxTimeout {
			timeout = drainMaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	WriteJSON(w, http.StatusOK, s.Drain(ctx))
}

// Drain gracefully quiesces the server: stop accepting new sessions
// and mines (those handlers answer 503 "draining"), wait for in-flight
// mine jobs up to ctx's deadline, then flush every live session to the
// store, one Put per session. Idempotent — a second call re-runs
// the flush, which is how an operator retries failed flushes after
// healing the store. The server still answers reads (history, model,
// jobs) while drained; Close still owns final pool teardown.
func (s *Server) Drain(ctx context.Context) *DrainReport {
	s.draining.Store(true)
	rep := &DrainReport{Draining: true}
	rep.JobsDrained = s.pool.Drain(ctx) == nil
	s.mu.Lock()
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, sess := range live {
		if s.persist(sess) {
			rep.Sessions++
			rep.Durable++
			continue
		}
		// persist declines closed sessions: their teardown (evict or
		// delete) owned the store entry, so they are not at risk here.
		sess.mu.Lock()
		closed := sess.closed
		sess.mu.Unlock()
		if closed {
			continue
		}
		rep.Sessions++
		rep.Failed = append(rep.Failed, sess.id)
	}
	rep.Persistence = s.health.state()
	return rep
}
