// Package server exposes the iterative miner as a JSON HTTP API with
// per-user sessions — the integration target the paper's future work
// names (§V: "we aim to integrate this method with SIDE, our online
// tool for exploration of numerical data"). A session owns a dataset
// and an evolving background model; the client mines, inspects and
// commits patterns interactively, and the server keeps the belief state
// between requests.
//
// Serving is job-oriented: every mine call is enqueued on a bounded
// worker pool (package jobs), so an expensive search occupies a worker,
// not an HTTP handler goroutine, and a burst of mines degrades into
// queueing latency rather than unbounded concurrency. Clients either
// wait for the result in the same request (the default), or pass
// "async": true and poll /api/jobs/{id} (optionally long-polling with
// ?waitMs=). Sessions are persisted as snapshots to a pluggable Store
// (in-memory or a disk directory) on create, commit and eviction, and
// are transparently restored on first touch — a restart or a second
// server process sharing the store does not lose belief state. An LRU
// cap and an idle TTL bound the number of live in-memory sessions.
//
// The API is versioned: /api/v1/... is the current surface, with a
// uniform error envelope {"error":{"code","message","retryAfterMs?"}}
// and modelVersion stamps on mine/commit/job responses. The same
// routes stay mounted under the original /api/... prefix as deprecated
// aliases with the legacy flat {"error":"message"} body and the legacy
// one-mine-at-a-time session semantics. Under /api/v1 a session
// accepts any number of concurrent mines while commits proceed: each
// mine pins the immutable background-model version published at its
// start (copy-on-write — see internal/background.ModelVersion), so
// mines never serialize behind a commit and report which belief state
// they reflect.
//
// Endpoints (all JSON, shown under the /api/v1 prefix; /api aliases
// are identical modulo the deprecated behaviors above):
//
//	POST   /api/v1/sessions                  create (builtin dataset or inline CSV)
//	GET    /api/v1/sessions                  list sessions (live + persisted)
//	DELETE /api/v1/sessions/{id}             drop a session (memory and store)
//	POST   /api/v1/sessions/{id}/mine        mine the next pattern (async: poll the job)
//	POST   /api/v1/sessions/{id}/commit      commit the pending pattern(s)
//	GET    /api/v1/sessions/{id}/explain     per-target surprise of the pending pattern
//	GET    /api/v1/sessions/{id}/history     committed patterns so far
//	GET    /api/v1/sessions/{id}/model       export the background model JSON
//	POST   /api/v1/sessions/{id}/snapshot    persist the session to the store now
//	GET    /api/v1/jobs                      list mine jobs
//	GET    /api/v1/jobs/{id}[?waitMs=N]      job status/result, optionally long-polled
//	DELETE /api/v1/jobs/{id}                 cancel a queued or running job
//	GET    /api/v1/healthz                   liveness probe (always 200 while serving)
//	GET    /api/v1/readyz                    readiness probe (503: draining/degraded/saturated)
//	POST   /api/v1/drain[?timeoutMs=N]       quiesce: stop intake, flush sessions durably
//
// Persistence is resilient rather than assumed: store writes retry
// with capped jittered backoff, and when a full retry cycle fails the
// server enters degraded mode — serving continues from memory,
// commit/create responses carry "persistence":"degraded", the explicit
// snapshot endpoint answers 503 store_degraded with a retry hint, and
// the first successful write heals the state automatically. See
// DESIGN.md §11 for the failure model.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/background"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/jobs"
	"repro/internal/pattern"
	"repro/internal/search"
	"repro/internal/si"
	"repro/internal/spreadopt"
)

// Options configure a Server. The zero value gets production defaults.
type Options struct {
	// Workers bounds concurrent mine searches; queued mines wait
	// (default max(2, NumCPU/2) — each search is itself parallel).
	Workers int
	// QueueCap bounds pending mines before Submit returns 503
	// (default 256).
	QueueCap int
	// Store persists session snapshots (default in-memory).
	Store Store
	// MaxSessions caps live in-memory sessions; beyond it the least
	// recently used idle session is snapshotted to the store and evicted
	// (default 256).
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this to the store
	// (default 30m; <= 0 disables).
	SessionTTL time.Duration
	// SyncWait bounds how long a synchronous mine request blocks before
	// handing the client its job id with 202 (default 10m).
	SyncWait time.Duration
	// MaxMineBudget caps every mine's search budget (default 5m). A
	// request without timeoutMs gets this budget, and a larger request
	// is clamped to it, so no job can occupy a worker unboundedly and
	// cancellation takes effect no later than the budget.
	MaxMineBudget time.Duration
	// ShardID, when set, names this process in healthz/readyz responses
	// and session listings so a cluster router (internal/cluster) and
	// the chaos harness can attribute failures to a specific shard. The
	// id is stable for the life of the process; it has no effect on
	// behavior, only on reporting.
	ShardID string
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU() / 2
		if o.Workers < 2 {
			o.Workers = 2
		}
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	if o.Store == nil {
		o.Store = NewMemStore()
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 256
	}
	if o.SessionTTL == 0 {
		o.SessionTTL = 30 * time.Minute
	}
	if o.SyncWait <= 0 {
		o.SyncWait = 10 * time.Minute
	}
	if o.MaxMineBudget <= 0 {
		o.MaxMineBudget = 5 * time.Minute
	}
	return o
}

// Server is the HTTP API. Create with New / NewWithOptions, mount via
// Handler, and Close when done to stop the worker pool.
type Server struct {
	mu       sync.Mutex
	sessions map[string]*session
	nextID   int
	// tombstones records recently deleted ids so a transparent restore
	// racing a DELETE (snapshot fetched before the store removal) cannot
	// resurrect the session. Entries expire after tombstoneTTL.
	tombstones map[string]time.Time

	opts  Options
	pool  *jobs.Pool
	store Store
	// health tracks store-Put reliability and the degraded-mode flag;
	// every persist path routes through storePut (retry.go).
	health *storeHealth
	// draining, once set by Drain, turns away new sessions and mines
	// with 503 while reads keep working — the graceful-shutdown gate.
	draining atomic.Bool
	// lastSweep (unix nanos) rate-limits TTL/LRU sweeps on request
	// paths, so idle-session eviction also happens on servers that see
	// only mine/commit traffic and no new creates.
	lastSweep atomic.Int64
}

// tombstoneTTL is how long a deleted id blocks restore-from-store; it
// only needs to cover the wall time of an in-flight restore.
const tombstoneTTL = time.Minute

type session struct {
	id string
	// create is the request that built the session, kept verbatim so a
	// snapshot can rebuild the dataset and miner deterministically.
	create CreateRequest

	// commitMu serializes model writers (commit, snapshot/persist) for
	// one session. It is acquired before sess.mu where both are needed
	// (lock order: commitMu → sess.mu) and is never held while waiting
	// on a mine: mines run against published model versions and take
	// neither lock. Store Puts for a session happen under commitMu, so
	// a stale snapshot can never overwrite a fresh one.
	commitMu sync.Mutex

	mu            sync.Mutex
	miner         *core.Miner
	mineTimeout   time.Duration // per-mine search budget (0 = none)
	closed        bool          // deleted or evicted; blocks queued requests
	mines         int           // mine jobs queued or running
	pendingLoc    *pattern.Location
	pendingSpread *pattern.Spread
	history       []PatternJSON
	// iterations mirrors miner.Iteration() for lock-free reads: info()
	// serves session listings without waiting behind state mutations.
	iterations atomic.Int64
	// lastUsed (unix nanos) orders sessions for LRU/TTL eviction.
	lastUsed atomic.Int64
}

func (sess *session) touch() { sess.lastUsed.Store(time.Now().UnixNano()) }

// lockOpen acquires the session lock and reports whether the session is
// still live. A request that grabbed the session just before a DELETE
// (or an eviction) removed it from the map would otherwise run after
// the teardown — and a mine would re-pin the evicted condition language
// of a dead dataset.
func (sess *session) lockOpen(w http.ResponseWriter, r *http.Request) bool {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		writeError(w, r, http.StatusNotFound, errNotFound, 0, "session deleted")
		return false
	}
	return true
}

// lockIdle is lockOpen plus the legacy-API guard against an in-flight
// mine: the deprecated /api surface promises one mine at a time per
// session, with commit/explain/model/snapshot 409ing while it runs.
// Under /api/v1 those handlers operate on published model versions (or
// serialize on commitMu), so they proceed concurrently with any number
// of mines and this reduces to lockOpen.
func (sess *session) lockIdle(w http.ResponseWriter, r *http.Request) bool {
	if !sess.lockOpen(w, r) {
		return false
	}
	if !isV1(r) && sess.mines > 0 {
		sess.mu.Unlock()
		writeError(w, r, http.StatusConflict, errMineInProgress, time.Second,
			"mine in progress; retry when the job finishes")
		return false
	}
	return true
}

// Caps on client-requested search settings that size allocations or
// unbounded work: numSplits grows the condition language (one cached
// extension bitset per condition), topK retains a cloned extension per
// kept pattern, beamWidth multiplies the per-level candidate batch,
// and depth multiplies the number of levels.
const (
	maxNumSplits   = 64
	maxTopK        = 10000
	maxBeamWidth   = 1024
	maxSearchDepth = 8
)

// New returns a server with default options.
func New() *Server { return NewWithOptions(Options{}) }

// NewWithOptions returns a server configured by opts. When the store
// already holds sessions (a restart over a DirStore), ids continue
// after the highest stored one.
func NewWithOptions(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		sessions:   map[string]*session{},
		tombstones: map[string]time.Time{},
		opts:       opts,
		store:      opts.Store,
		health:     newStoreHealth(),
		pool:       jobs.NewPool(opts.Workers, opts.QueueCap),
	}
	if ids, err := s.store.List(); err == nil {
		for _, id := range ids {
			if n, ok := parseSessionID(id); ok && n > s.nextID {
				s.nextID = n
			}
		}
	}
	return s
}

func parseSessionID(id string) (int, bool) {
	if !strings.HasPrefix(id, "s") {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Close stops the worker pool, cancelling queued and running jobs.
func (s *Server) Close() { s.pool.Close() }

// Handler returns the API routes, mounted twice: /api/v1 is the
// current surface, /api the deprecated alias kept for older clients
// (flat error bodies, one mine at a time per session).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.routes(mux, "/api/v1")
	s.routes(mux, "/api") // deprecated alias
	return mux
}

// routes registers every endpoint under one prefix. All route
// registration goes through this function (cmd/apicheck enforces it)
// so the versioned mounts cannot drift apart.
func (s *Server) routes(mux *http.ServeMux, prefix string) {
	mux.HandleFunc("POST "+prefix+"/sessions", s.handleCreate)
	mux.HandleFunc("GET "+prefix+"/sessions", s.handleList)
	mux.HandleFunc("DELETE "+prefix+"/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST "+prefix+"/sessions/{id}/mine", s.handleMine)
	mux.HandleFunc("POST "+prefix+"/sessions/{id}/commit", s.handleCommit)
	mux.HandleFunc("GET "+prefix+"/sessions/{id}/explain", s.handleExplain)
	mux.HandleFunc("GET "+prefix+"/sessions/{id}/history", s.handleHistory)
	mux.HandleFunc("GET "+prefix+"/sessions/{id}/model", s.handleModel)
	mux.HandleFunc("POST "+prefix+"/sessions/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST "+prefix+"/sessions/{id}/handoff", s.handleHandoff)
	mux.HandleFunc("GET "+prefix+"/jobs", s.handleJobList)
	mux.HandleFunc("GET "+prefix+"/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE "+prefix+"/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET "+prefix+"/healthz", s.handleHealthz)
	mux.HandleFunc("GET "+prefix+"/readyz", s.handleReadyz)
	mux.HandleFunc("POST "+prefix+"/drain", s.handleDrain)
}

// CreateRequest configures a new session.
type CreateRequest struct {
	// ID, when set, requests a specific session id instead of a
	// server-generated one (letters, digits, '-', '_'; max 64 chars). A
	// taken id — live, recently deleted, or present in the store —
	// answers 409 session_exists. This is the handle the cluster router
	// uses: it must know a session's id *before* placing it on a shard,
	// because the consistent-hash ring maps ids to shards.
	ID string `json:"id,omitempty"`
	// Dataset is a builtin name (synthetic|crime|mammals|socio|water) or
	// "csv" with the data inline in CSV.
	Dataset string  `json:"dataset"`
	Seed    int64   `json:"seed,omitempty"`
	CSV     string  `json:"csv,omitempty"`
	Gamma   float64 `json:"gamma,omitempty"`
	Eta     float64 `json:"eta,omitempty"`
	// Search settings (0 = paper defaults). Parallelism caps the
	// evaluation-engine workers per search — sessions on a shared server
	// can be throttled so one mine call does not occupy every core.
	BeamWidth   int  `json:"beamWidth,omitempty"`
	Depth       int  `json:"depth,omitempty"`
	TopK        int  `json:"topK,omitempty"`
	MinSupport  int  `json:"minSupport,omitempty"`
	NumSplits   int  `json:"numSplits,omitempty"`
	Parallelism int  `json:"parallelism,omitempty"`
	PairSparse  bool `json:"pairSparse,omitempty"`
	// MineTimeoutMS bounds each mine call's beam search (0 = no budget);
	// a cut-short search reports a "partial" or "timeout" status in the
	// mine response.
	MineTimeoutMS int `json:"mineTimeoutMs,omitempty"`
}

// SessionInfo describes a session to clients. Persisted-only sessions
// (evicted or from a previous process) carry just ID and Persisted —
// touching any session endpoint restores them transparently.
type SessionInfo struct {
	ID         string   `json:"id"`
	Dataset    string   `json:"dataset,omitempty"`
	N          int      `json:"n,omitempty"`
	Dx         int      `json:"dx,omitempty"`
	Dy         int      `json:"dy,omitempty"`
	Targets    []string `json:"targets,omitempty"`
	Iterations int      `json:"iterations"`
	Persisted  bool     `json:"persisted,omitempty"`
	// Persistence is set to "degraded" when the store was unreachable
	// at create time: the session lives in memory only until it heals.
	Persistence string `json:"persistence,omitempty"`
	// Shard is the serving process's ShardID (when configured): in a
	// cluster, listings merged by the router say which shard holds each
	// live session.
	Shard string `json:"shard,omitempty"`
}

// PatternJSON is the wire form of a mined pattern.
type PatternJSON struct {
	Kind      string    `json:"kind"` // "location" or "spread"
	Intention string    `json:"intention"`
	Size      int       `json:"size"`
	SI        float64   `json:"si"`
	IC        float64   `json:"ic"`
	DL        float64   `json:"dl"`
	Mean      []float64 `json:"mean,omitempty"`
	W         []float64 `json:"w,omitempty"`
	Variance  float64   `json:"variance,omitempty"`
}

// MineRequest selects what to mine. TimeoutMS overrides the session's
// mine budget for this call (0 = use the session default). Async makes
// the handler return 202 with the job immediately instead of waiting.
type MineRequest struct {
	Spread    bool `json:"spread"`
	TimeoutMS int  `json:"timeoutMs,omitempty"`
	Async     bool `json:"async,omitempty"`
}

// Mine outcome statuses. A deadline that expires mid-search is not an
// error: the beam returns its best-so-far, reported as "partial" so
// clients can distinguish it from a search that ran to completion.
const (
	// MineStatusComplete: the search ran to completion.
	MineStatusComplete = "complete"
	// MineStatusPartial: the budget expired mid-search; Location is the
	// best pattern found before the cut.
	MineStatusPartial = "partial"
	// MineStatusTimeout: the budget expired before anything was scored;
	// Location is null. Retry with a larger budget.
	MineStatusTimeout = "timeout"
)

// MineResponse carries the pending (uncommitted) patterns. Location is
// null only when Status is "timeout".
type MineResponse struct {
	Location *PatternJSON `json:"location"`
	Spread   *PatternJSON `json:"spread,omitempty"`
	// Evaluated counts candidates scored by the beam search.
	Evaluated int `json:"evaluated"`
	// BoundEvals and Pruned report the admissible-bound pruning
	// diagnostics of the search: how many candidates had an SI upper
	// bound computed, and how many of those were skipped without a
	// scoring pass. Pruning never changes results; the exact counts
	// vary run to run with goroutine scheduling.
	BoundEvals int `json:"boundEvals,omitempty"`
	Pruned     int `json:"pruned,omitempty"`
	// Status is complete, partial or timeout (see the constants).
	Status string `json:"status"`
	// TimedOut mirrors Status != complete (kept for older clients).
	TimedOut bool `json:"timedOut,omitempty"`
	// Job is the id of the mine job that produced this response.
	Job string `json:"job,omitempty"`
	// ModelVersion is the published background-model version the search
	// ran against. A mine is deterministic given its model version: the
	// same session state at the same version yields byte-identical
	// results regardless of commits that landed while it ran.
	ModelVersion uint64 `json:"modelVersion,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Error codes carried in the /api/v1 error envelope. Codes are part of
// the API contract: clients dispatch on them, messages are for humans.
const (
	errBadRequest      = "bad_request"
	errNotFound        = "not_found"
	errSessionExists   = "session_exists"
	errMineInProgress  = "mine_in_progress"
	errNothingPending  = "nothing_pending"
	errQueueFull       = "queue_full"
	errDeadline        = "deadline"
	errCancelled       = "cancelled"
	errInternal        = "internal"
	errSnapshotCorrupt = "snapshot_corrupt"
	errStoreDegraded   = "store_degraded"
	errDraining        = "draining"
	errModelInfeasible = "model_infeasible"
)

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMs, when present, is the server's hint for how long to
	// back off before retrying (503s and transient 409s).
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}

// isV1 reports whether the request came in through the current
// /api/v1 mount (as opposed to the deprecated /api alias).
func isV1(r *http.Request) bool {
	return r != nil && strings.HasPrefix(r.URL.Path, "/api/v1/")
}

// writeError is the single error-response writer (cmd/apicheck fails
// the build if a handler bypasses it): /api/v1 requests get the
// structured envelope {"error":{"code","message","retryAfterMs?"}},
// legacy /api requests keep the flat {"error":"message"} body older
// clients parse.
func writeError(w http.ResponseWriter, r *http.Request, status int, code string, retryAfter time.Duration, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !isV1(r) {
		writeJSON(w, status, map[string]string{"error": msg})
		return
	}
	body := errorBody{Code: code, Message: msg}
	if retryAfter > 0 {
		body.RetryAfterMs = retryAfter.Milliseconds()
	}
	writeJSON(w, status, map[string]errorBody{"error": body})
}

func buildDataset(req *CreateRequest) (*dataset.Dataset, error) {
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	switch strings.ToLower(req.Dataset) {
	case "synthetic":
		return gen.Synthetic620(seed).DS, nil
	case "crime":
		return gen.CrimeLike(seed).DS, nil
	case "mammals":
		return gen.MammalsLike(seed).DS, nil
	case "socio":
		return gen.SocioEconLike(seed).DS, nil
	case "water":
		return gen.WaterQualityLike(seed).DS, nil
	case "csv":
		if req.CSV == "" {
			return nil, fmt.Errorf("dataset \"csv\" needs a csv field")
		}
		return dataset.ReadCSV(strings.NewReader(req.CSV))
	default:
		return nil, fmt.Errorf("unknown dataset %q", req.Dataset)
	}
}

// newSession builds a session from a create request — the one
// construction path shared by POST /api/sessions and snapshot restore,
// so both apply identical clamping and defaults (which is what makes a
// restored session behave exactly like the original).
func newSession(req *CreateRequest) (*session, error) {
	ds, err := buildDataset(req)
	if err != nil {
		return nil, err
	}
	// Clamp client-supplied engine options that size allocations: one
	// create request must not be able to exhaust the shared server.
	clamped := *req
	if clamped.Parallelism > runtime.NumCPU() {
		clamped.Parallelism = runtime.NumCPU()
	}
	if clamped.NumSplits > maxNumSplits {
		clamped.NumSplits = maxNumSplits
	}
	if clamped.TopK > maxTopK {
		clamped.TopK = maxTopK
	}
	if clamped.BeamWidth > maxBeamWidth {
		clamped.BeamWidth = maxBeamWidth
	}
	if clamped.Depth > maxSearchDepth {
		clamped.Depth = maxSearchDepth
	}
	cfg := core.Config{
		Search: search.Params{
			BeamWidth:   clamped.BeamWidth,
			MaxDepth:    clamped.Depth,
			TopK:        clamped.TopK,
			MinSupport:  clamped.MinSupport,
			NumSplits:   clamped.NumSplits,
			Parallelism: clamped.Parallelism,
		},
		Spread: spreadopt.Params{
			PairSparse: clamped.PairSparse,
			// The spread preview's restart pool obeys the same clamped
			// worker budget as the beam search.
			Parallelism: clamped.Parallelism,
		},
	}
	if clamped.Gamma != 0 || clamped.Eta != 0 {
		cfg.SI = si.Params{Gamma: clamped.Gamma, Eta: clamped.Eta}
	}
	miner, err := core.NewMiner(ds, cfg)
	if err != nil {
		return nil, fmt.Errorf("building miner: %w", err)
	}
	sess := &session{miner: miner, create: *req}
	if clamped.MineTimeoutMS > 0 {
		sess.mineTimeout = time.Duration(clamped.MineTimeoutMS) * time.Millisecond
	}
	sess.touch()
	return sess, nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, r, http.StatusServiceUnavailable, errDraining, degradedRetryAfter,
			"server is draining; no new sessions")
		return
	}
	var req CreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, errBadRequest, 0, "invalid JSON: %v", err)
		return
	}
	if req.ID != "" && !validID(req.ID) {
		writeError(w, r, http.StatusBadRequest, errBadRequest, 0,
			"invalid session id %q (letters, digits, '-', '_'; max 64 chars)", req.ID)
		return
	}
	sess, err := newSession(&req)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, errBadRequest, 0, "%v", err)
		return
	}
	var id string
	if req.ID != "" {
		// Requested id (cluster routing): reserve it in the live map
		// under the lock — a racing create of the same id loses there —
		// then probe the store, which another shard may already own.
		id = req.ID
		sess.id = id
		s.mu.Lock()
		_, live := s.sessions[id]
		_, dead := s.tombstones[id]
		if !live && !dead {
			s.sessions[id] = sess
		}
		s.mu.Unlock()
		taken := live || dead
		if !taken {
			if _, err := s.store.Get(id); !errors.Is(err, ErrNotFound) {
				taken = true
				s.mu.Lock()
				if s.sessions[id] == sess {
					delete(s.sessions, id)
				}
				s.mu.Unlock()
			}
		}
		if taken {
			engine.EvictLanguage(sess.miner.DS)
			writeError(w, r, http.StatusConflict, errSessionExists, 0,
				"session %q already exists", id)
			return
		}
	} else {
		s.mu.Lock()
		// Probe for a free id: another process sharing the store (or a
		// restored set of sessions) may already own the next counter value,
		// and a Put under a reused id would silently overwrite its snapshot.
		// A store error counts as "taken" (conservative), with a bounded
		// number of probes so a wholly broken store cannot spin forever.
		// Two processes creating at the same instant can still race the
		// probe — shared DirStores are for restart/failover continuity, not
		// coordination-free concurrent writes (the cluster router avoids
		// the race entirely by creating with explicit ids).
		for probes := 0; ; probes++ {
			s.nextID++
			id = fmt.Sprintf("s%04d", s.nextID)
			if probes >= 10000 {
				break
			}
			if _, live := s.sessions[id]; live {
				continue
			}
			if _, dead := s.tombstones[id]; dead {
				continue
			}
			if _, err := s.store.Get(id); !errors.Is(err, ErrNotFound) {
				continue
			}
			break
		}
		sess.id = id
		s.sessions[id] = sess
		s.mu.Unlock()
	}
	s.persist(sess) // best-effort: a restart should know the session exists
	s.enforceCaps()
	ds := sess.miner.DS
	inf := SessionInfo{
		ID: id, Dataset: ds.Name,
		N: ds.N(), Dx: ds.Dx(), Dy: ds.Dy(),
		Targets: ds.TargetNames,
		Shard:   s.opts.ShardID,
	}
	// Degraded persistence at create time means the session exists in
	// memory only — worth telling the client up front.
	if s.health.degraded.Load() {
		inf.Persistence = PersistenceDegraded
	}
	writeJSON(w, http.StatusCreated, inf)
}

// lookup finds a live session or transparently restores it from the
// store. Returns ErrNotFound when the id is unknown in both places;
// any other error means a snapshot exists but could not be restored.
func (s *Server) lookup(id string) (*session, error) {
	s.maybeSweep()
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess != nil {
		sess.touch()
		return sess, nil
	}
	return s.restoreFromStore(id)
}

// restoreFromStore rebuilds a session from its snapshot: same dataset
// (deterministic in the create request), exact model parameters
// (LoadJSONExact — no refit drift), same history and iteration count.
func (s *Server) restoreFromStore(id string) (*session, error) {
	snap, err := s.store.Get(id)
	if err != nil {
		return nil, err // ErrNotFound, ErrCorrupt, or a store I/O failure
	}
	// Verify the integrity framing regardless of which store served the
	// snapshot: DirStore checks (and quarantines) on Get, but a custom
	// Store implementation may not.
	if err := snap.Verify(); err != nil {
		return nil, err
	}
	sess, err := newSession(&snap.Create)
	if err != nil {
		return nil, fmt.Errorf("rebuilding dataset/miner: %w", err)
	}
	model, err := background.LoadJSONExact(bytes.NewReader(snap.Model))
	if err != nil {
		// A model payload the loader rejects inside a checksum-valid (or
		// legacy, unchecksummed) snapshot is still corruption, not an
		// operational failure: surface it as the typed sentinel so the
		// handler can answer with the snapshot_corrupt envelope instead
		// of bubbling a raw decode error.
		if errors.Is(err, background.ErrCorrupt) {
			return nil, fmt.Errorf("%w: restoring model for %s: %v", ErrCorrupt, id, err)
		}
		return nil, fmt.Errorf("restoring model: %w", err)
	}
	if err := sess.miner.Restore(model, snap.Iterations); err != nil {
		return nil, fmt.Errorf("restoring model: %w", err)
	}
	sess.id = id
	sess.history = append([]PatternJSON(nil), snap.History...)
	sess.iterations.Store(int64(snap.Iterations))
	sess.touch()
	s.mu.Lock()
	if t, dead := s.tombstones[id]; dead && time.Since(t) < tombstoneTTL {
		// A DELETE ran while we were rebuilding: honour it.
		s.mu.Unlock()
		engine.EvictLanguage(sess.miner.DS)
		return nil, ErrNotFound
	}
	if have := s.sessions[id]; have != nil { // lost a restore race
		s.mu.Unlock()
		engine.EvictLanguage(sess.miner.DS)
		have.touch()
		return have, nil
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	s.enforceCaps()
	return sess, nil
}

// maybeSweep runs the TTL/LRU sweep at most every 10s from request
// paths, so eviction does not depend on session-create traffic.
func (s *Server) maybeSweep() {
	const interval = 10 * time.Second
	now := time.Now().UnixNano()
	last := s.lastSweep.Load()
	if now-last < int64(interval) {
		return
	}
	if s.lastSweep.CompareAndSwap(last, now) {
		s.enforceCaps()
	}
}

// persist snapshots the session to the store; best-effort, reports
// success. Skips closed sessions (their teardown owns the store
// entry). commitMu is held across the Put — the discipline every
// persist path shares, so snapshots of one session are serialized and
// a stale one can never overwrite a fresh one.
func (s *Server) persist(sess *session) bool {
	sess.commitMu.Lock()
	defer sess.commitMu.Unlock()
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return false
	}
	snap, err := sess.snapshotLocked()
	sess.mu.Unlock()
	if err != nil {
		return false
	}
	return s.storePut(snap) == nil
}

// snapshotLocked serializes the session's durable state. Caller holds
// sess.mu (for history/iterations consistency) and, on every path that
// goes on to Put, commitMu (so the published version, history and
// iteration count belong to the same commit). The model itself is read
// from the published version — immutable, so serialization is safe
// even while a later commit builds its successor. Pending
// (uncommitted) patterns are ephemeral by design and not part of the
// snapshot.
func (sess *session) snapshotLocked() (*Snapshot, error) {
	var buf bytes.Buffer
	if err := sess.miner.Snapshot().SaveJSON(&buf); err != nil {
		return nil, err
	}
	snap := &Snapshot{
		ID:         sess.id,
		Create:     sess.create,
		Model:      json.RawMessage(buf.Bytes()),
		History:    append([]PatternJSON(nil), sess.history...),
		Iterations: int(sess.iterations.Load()),
		SavedAt:    time.Now(),
	}
	snap.Seal()
	return snap, nil
}

// enforceCaps applies the TTL and LRU bounds: idle sessions past the
// TTL, and the least recently used sessions beyond MaxSessions, are
// snapshotted to the store and evicted from memory. Mining sessions
// are never evicted. The global lock is only held to pick candidates;
// model serialization and store writes happen per session, so a sweep
// over a slow disk never stalls unrelated requests.
func (s *Server) enforceCaps() {
	now := time.Now().UnixNano()
	s.mu.Lock()
	for id, t := range s.tombstones {
		if time.Since(t) > tombstoneTTL {
			delete(s.tombstones, id)
		}
	}
	type candidate struct {
		sess *session
		used int64
	}
	var victims []candidate
	if ttl := s.opts.SessionTTL; ttl > 0 {
		for _, sess := range s.sessions {
			if now-sess.lastUsed.Load() > int64(ttl) {
				victims = append(victims, candidate{sess, sess.lastUsed.Load()})
			}
		}
	}
	if over := len(s.sessions) - s.opts.MaxSessions; over > 0 {
		all := make([]candidate, 0, len(s.sessions))
		for _, sess := range s.sessions {
			all = append(all, candidate{sess, sess.lastUsed.Load()})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].used < all[j].used })
		seen := map[*session]bool{}
		for _, c := range victims {
			seen[c.sess] = true
		}
		for _, c := range all[:over] {
			if !seen[c.sess] {
				victims = append(victims, c)
			}
		}
	}
	s.mu.Unlock()
	for _, c := range victims {
		s.tryEvict(c.sess)
	}
}

// tryEvict snapshots one session to the store and removes it from
// memory. Eviction drops pending (uncommitted) patterns — they are
// ephemeral — but never loses committed belief state: the session is
// closed only once the store accepted the snapshot; commitMu (try-
// locked, so a sweep never stalls behind a long refit) keeps a
// concurrent commit from interleaving its Put, and sess.mu is held
// from the mines==0 check through closed=true so no mine can claim a
// slot in between. Lock order here is commitMu → sess.mu → s.mu; no
// path nests them the other way around.
func (s *Server) tryEvict(sess *session) bool {
	if !sess.commitMu.TryLock() {
		return false
	}
	defer sess.commitMu.Unlock()
	sess.mu.Lock()
	if sess.closed || sess.mines > 0 {
		sess.mu.Unlock()
		return false
	}
	snap, err := sess.snapshotLocked()
	if err != nil || s.storePut(snap) != nil {
		sess.mu.Unlock()
		return false
	}
	sess.closed = true
	sess.mu.Unlock()
	s.mu.Lock()
	if s.sessions[sess.id] == sess {
		delete(s.sessions, sess.id)
	}
	s.mu.Unlock()
	engine.EvictLanguage(sess.miner.DS)
	return true
}

// info describes a session; ok is false when the session was deleted
// between the caller's id snapshot and this lookup.
func (s *Server) info(id string) (SessionInfo, bool) {
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		return SessionInfo{}, false
	}
	ds := sess.miner.DS
	return SessionInfo{
		ID: id, Dataset: ds.Name,
		N: ds.N(), Dx: ds.Dx(), Dy: ds.Dy(),
		Targets:    ds.TargetNames,
		Iterations: int(sess.iterations.Load()),
		Shard:      s.opts.ShardID,
	}, true
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.maybeSweep()
	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	live := map[string]bool{}
	out := make([]SessionInfo, 0, len(ids))
	for _, id := range ids {
		if inf, ok := s.info(id); ok {
			out = append(out, inf)
			live[id] = true
		}
	}
	// Persisted-only sessions (evicted, or from a previous process) are
	// listed by id; touching them restores the full state.
	if stored, err := s.store.List(); err == nil {
		for _, id := range stored {
			if !live[id] {
				out = append(out, SessionInfo{ID: id, Persisted: true})
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	delete(s.sessions, id)
	// The tombstone blocks a restore that fetched the snapshot before
	// the store removal below from resurrecting the session.
	s.tombstones[id] = time.Now()
	s.mu.Unlock()
	if ok {
		// Release the dataset's cached condition language with the
		// session; datasets are per-session, so nobody else can be using
		// it. Marking the session closed stops requests still queued on
		// the lock from rebuilding and re-pinning the language after the
		// eviction; if mine jobs are in flight, the watcher of the last
		// one to drain performs the eviction instead (an in-flight search
		// keeps its own reference, so dropping the cache entry is safe
		// either way).
		sess.mu.Lock()
		sess.closed = true
		mining := sess.mines > 0
		sess.mu.Unlock()
		if !mining {
			engine.EvictLanguage(sess.miner.DS)
		}
	}
	// A session can exist only as a stored snapshot (evicted, or from a
	// previous process); deleting that is a successful delete too. A
	// failing store removal must surface: claiming "deleted" while the
	// snapshot survives would let the session resurrect after the
	// tombstone expires.
	hadSnapshot, delErr := s.store.Delete(id)
	if delErr != nil {
		writeError(w, r, http.StatusInternalServerError, errInternal, 0,
			"session removed from memory but snapshot deletion failed: %v", delErr)
		return
	}
	if !ok && !hadSnapshot {
		writeError(w, r, http.StatusNotFound, errNotFound, 0, "no session %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) withSession(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("id")
	sess, err := s.lookup(id)
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, r, http.StatusNotFound, errNotFound, 0, "no session %q", id)
		return nil
	case errors.Is(err, ErrCorrupt):
		// The stored snapshot failed integrity validation. DirStore has
		// already quarantined the file; the structured envelope tells the
		// client the session's persisted state is unrecoverable (rather
		// than transient), distinct from a plain internal error.
		writeError(w, r, http.StatusInternalServerError, errSnapshotCorrupt, 0,
			"session %q: %v", id, err)
		return nil
	case err != nil:
		// A snapshot exists but could not be restored — surface the
		// cause instead of a misleading 404.
		writeError(w, r, http.StatusInternalServerError, errInternal, 0,
			"restoring session %q: %v", id, err)
		return nil
	}
	return sess
}

func locationJSON(ds *dataset.Dataset, loc *pattern.Location) *PatternJSON {
	return &PatternJSON{
		Kind:      "location",
		Intention: loc.Intention.Format(ds),
		Size:      loc.Size(),
		SI:        loc.SI, IC: loc.IC, DL: loc.DL,
		Mean: loc.Mean,
	}
}

func spreadJSON(ds *dataset.Dataset, sp *pattern.Spread) *PatternJSON {
	return &PatternJSON{
		Kind:      "spread",
		Intention: sp.Intention.Format(ds),
		Size:      sp.Size(),
		SI:        sp.SI, IC: sp.IC, DL: sp.DL,
		W: sp.W, Variance: sp.Variance,
	}
}

// clampBudget normalizes a per-call wall-time budget: unset (≤ 0) and
// oversized budgets collapse to MaxMineBudget. Shared by the mine job
// submission and the commit-path refit deadline so the two stay in sync.
func (s *Server) clampBudget(budget time.Duration) time.Duration {
	if budget <= 0 || budget > s.opts.MaxMineBudget {
		return s.opts.MaxMineBudget
	}
	return budget
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, r, http.StatusServiceUnavailable, errDraining, degradedRetryAfter,
			"server is draining; no new mines")
		return
	}
	sess := s.withSession(w, r)
	if sess == nil {
		return
	}
	var req MineRequest
	if r.ContentLength > 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, r, http.StatusBadRequest, errBadRequest, 0, "invalid JSON: %v", err)
			return
		}
	}
	// Claim a mine slot under the lock, then run the search on a pool
	// worker with no session lock held — concurrent sessions never
	// serialize behind one search, and list/history stay responsive
	// during a long mine. The legacy /api surface allows one slot per
	// session; /api/v1 allows any number, since every mine runs against
	// the immutable model version published at its start.
	if !sess.lockOpen(w, r) {
		return
	}
	if !isV1(r) && sess.mines > 0 {
		sess.mu.Unlock()
		writeError(w, r, http.StatusConflict, errMineInProgress, time.Second,
			"mine already in progress for this session")
		return
	}
	sess.mines++
	budget := sess.mineTimeout
	if req.TimeoutMS > 0 {
		budget = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	// Every job gets a budget: an unbudgeted or oversized request is
	// clamped to MaxMineBudget so no search can occupy a worker
	// unboundedly (and cancellation bites no later than the budget).
	budget = s.clampBudget(budget)
	sess.mu.Unlock()

	job, err := s.pool.Submit("mine "+sess.id, budget, s.mineJob(sess, req))
	if err != nil {
		s.releaseMine(sess)
		writeError(w, r, http.StatusServiceUnavailable, errQueueFull, time.Second,
			"mine queue full, retry later: %v", err)
		return
	}
	// Release the mine slot on any terminal outcome. CancelRequested
	// fires at cancel-request time — before the pool notices the Fn
	// unwinding — so a cancelled mine (queued or mid-search) frees its
	// slot immediately instead of holding the session until the worker
	// returns. A sync mine that finished also releases it before the
	// response is written, so the client's next request never finds it
	// held; the Once keeps the watcher from releasing it a second time.
	var once sync.Once
	release := func() { once.Do(func() { s.releaseMine(sess) }) }
	go func() {
		select {
		case <-job.Done():
		case <-job.CancelRequested():
		}
		release()
	}()

	if req.Async {
		inf, _ := s.pool.Get(job.ID())
		writeJSON(w, http.StatusAccepted, inf)
		return
	}
	inf, _ := s.pool.Wait(r.Context(), job.ID(), s.opts.SyncWait)
	if inf.Status.Terminal() {
		release()
	}
	s.writeMineOutcome(w, r, inf)
}

// releaseMine returns one mine slot; the watcher of the last slot to
// drain on a closed session also releases the dataset's cached
// condition language (an in-flight search keeps its own reference, so
// eviction while a cancelled search unwinds is safe).
func (s *Server) releaseMine(sess *session) {
	sess.mu.Lock()
	sess.mines--
	last := sess.mines == 0 && sess.closed
	sess.mu.Unlock()
	if last {
		engine.EvictLanguage(sess.miner.DS)
	}
}

// writeMineOutcome maps a finished (or still-running) mine job to the
// synchronous response the classic API contract promises.
func (s *Server) writeMineOutcome(w http.ResponseWriter, r *http.Request, inf jobs.Info) {
	switch inf.Status {
	case jobs.StatusDone:
		resp, ok := inf.Result.(*MineResponse)
		if !ok {
			writeError(w, r, http.StatusInternalServerError, errInternal, 0,
				"mine job returned %T", inf.Result)
			return
		}
		// Annotate a copy: the original is shared with concurrent
		// GET /api/jobs/{id} marshalling.
		withJob := *resp
		withJob.Job = inf.ID
		writeJSON(w, http.StatusOK, &withJob)
	case jobs.StatusFailed:
		writeError(w, r, http.StatusInternalServerError, errInternal, 0, "mining: %s", inf.Error)
	case jobs.StatusCancelled:
		writeError(w, r, http.StatusConflict, errCancelled, 0, "mine job %s cancelled", inf.ID)
	default:
		// SyncWait elapsed (or the client went away): hand over the job
		// id so the client can keep polling.
		writeJSON(w, http.StatusAccepted, inf)
	}
}

// mineJob is the Fn run on a pool worker for one mine call. It takes
// no session lock while searching: the whole mine — beam search and
// spread preview — runs against the immutable model version pinned at
// its start, so any number of jobs (and commits building the next
// version) proceed concurrently. The session lock is only taken to
// publish the pending result.
func (s *Server) mineJob(sess *session, req MineRequest) jobs.Fn {
	return func(ctx context.Context, progress func(string)) (any, error) {
		// Deadline propagation: the job context carries the mine budget
		// (counted from job start, so queue time does not eat search
		// time); hand it to the engine's native deadline support.
		deadline := time.Time{}
		if d, ok := ctx.Deadline(); ok {
			deadline = d
		}
		// Pin the currently published model version and record it on the
		// job, so the response (and the job record) say which belief
		// state the result reflects — the handle a client needs to
		// reproduce the mine exactly.
		v := sess.miner.Snapshot()
		jobs.RecordModelVersion(ctx, v.Version())
		progress("beam search")
		loc, log, err := sess.miner.MineAt(v, core.MineOptions{Deadline: deadline})
		// A cancelled job must not publish results. The search itself
		// only honours the time deadline, so cancellation takes effect
		// here — after the current search phase, and no later than the
		// mine budget.
		if cerr := context.Cause(ctx); errors.Is(cerr, context.Canceled) {
			return nil, cerr
		}
		if err != nil {
			// A budget that expires before anything is scored is a
			// timeout, not a server failure: honour the MineResponse
			// contract. The pending slots are cleared so an earlier
			// mine's pattern cannot be committed on the strength of this
			// empty result.
			if errors.Is(err, core.ErrNoPattern) && log != nil && log.TimedOut {
				sess.mu.Lock()
				sess.pendingLoc, sess.pendingSpread = nil, nil
				sess.mu.Unlock()
				return &MineResponse{
					Evaluated:    log.Evaluated,
					BoundEvals:   log.BoundEvals,
					Pruned:       log.Pruned,
					Status:       MineStatusTimeout,
					TimedOut:     true,
					ModelVersion: v.Version(),
				}, nil
			}
			return nil, err
		}
		progress(fmt.Sprintf("beam search done: %d evaluated, %d pruned by SI bounds",
			log.Evaluated, log.Pruned))
		resp := &MineResponse{
			Location:     locationJSON(sess.miner.DS, loc),
			Evaluated:    log.Evaluated,
			BoundEvals:   log.BoundEvals,
			Pruned:       log.Pruned,
			Status:       MineStatusComplete,
			TimedOut:     log.TimedOut,
			ModelVersion: v.Version(),
		}
		if log.TimedOut {
			resp.Status = MineStatusPartial
		}
		var sp *pattern.Spread
		if req.Spread {
			// The two-step procedure needs the location committed before
			// the direction search; preview on a fork of the pinned
			// version so nothing is committed until the client asks for
			// it (and concurrent commits to the live model stay
			// invisible).
			progress("spread preview")
			preview := sess.miner.ForkAt(v)
			// The what-if commit's coordinate descent runs on the same
			// job budget as the search phases: a pathological refit
			// cannot pin the worker past the mine deadline.
			preview.Model.Deadline = deadline
			if err := preview.Model.CommitLocation(loc.Extension, loc.Mean); err != nil {
				// The budget ran out after the location was already
				// mined: that is a partial result, not a job failure —
				// same contract as a deadline expiring mid-search. The
				// location is kept; only the spread is dropped.
				if errors.Is(err, background.ErrDeadline) {
					resp.Status = MineStatusPartial
					resp.TimedOut = true
				} else {
					return nil, fmt.Errorf("spread preview: %w", err)
				}
			} else {
				// The direction search honours the same deadline (via
				// preview.Model.Deadline): on expiry it degrades to the
				// best direction found so far instead of pinning the
				// worker, and the response is marked partial.
				var spTimedOut bool
				sp, spTimedOut, err = preview.MineSpreadBudget(loc)
				if err != nil {
					return nil, fmt.Errorf("spread: %w", err)
				}
				if spTimedOut {
					resp.Status = MineStatusPartial
					resp.TimedOut = true
				}
				resp.Spread = spreadJSON(sess.miner.DS, sp)
			}
		}
		sess.mu.Lock()
		if !sess.closed {
			sess.pendingLoc = loc
			sess.pendingSpread = sp
		}
		sess.mu.Unlock()
		return resp, nil
	}
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	sess := s.withSession(w, r)
	if sess == nil {
		return
	}
	// Model writers serialize on commitMu; sess.mu is scoped to the
	// claim and publish windows. Concurrent v1 mines (which read
	// published versions and take neither lock while searching) proceed
	// in parallel with the refit. The pending claim happens after
	// commitMu is held, so two racing commits cannot both consume the
	// same pending pattern — the loser sees the cleared slot and 409s.
	sess.commitMu.Lock()
	defer sess.commitMu.Unlock()
	if !sess.lockIdle(w, r) {
		return
	}
	pl, ps := sess.pendingLoc, sess.pendingSpread
	sess.mu.Unlock()
	if pl == nil && ps == nil {
		writeError(w, r, http.StatusConflict, errNothingPending, 0, "nothing mined to commit")
		return
	}
	// The commit's coordinate descent gets the session's mine budget
	// (clamped like a mine request): background.Model.refit checks the
	// deadline each sweep and fails atomically, so one degenerate
	// constraint system cannot hold the commit lock unboundedly. A
	// deadline failure is back-pressure, not a server error — the
	// pending pattern that hit it stays pending, so the client keeps
	// what was mined. Rollback is atomic, so a retry restarts the
	// descent from scratch under a fresh budget; it helps when the
	// failure was load-induced, not when the constraint system
	// deterministically needs more than the budget. Deadline lives on
	// the live model, which only commitMu holders touch.
	model := sess.miner.Model
	model.Deadline = time.Now().Add(s.clampBudget(sess.mineTimeout))
	defer func() { model.Deadline = time.Time{} }()
	if pl != nil {
		if err := sess.miner.CommitLocation(pl); err != nil {
			status, code, retry := commitFailure(err)
			writeError(w, r, status, code, retry, "commit: %v", err)
			return
		}
		// The location is now irreversibly in the background model:
		// record that before attempting the spread, so a failed spread
		// commit can neither double-commit the location on retry nor
		// leave the listed iteration count behind the model's. The
		// pending slot is cleared only if it still holds the committed
		// pattern — a concurrent v1 mine may have published a fresher
		// one in the meantime, which must survive.
		sess.mu.Lock()
		sess.history = append(sess.history, *locationJSON(sess.miner.DS, pl))
		if sess.pendingLoc == pl {
			sess.pendingLoc = nil
		}
		sess.iterations.Store(int64(sess.miner.Iteration()))
		sess.mu.Unlock()
	}
	if ps != nil {
		if err := sess.miner.CommitSpread(ps); err != nil {
			// The spread stays pending: a deadline 503 advertises a
			// retry, and the retry must still have something to commit
			// (the location leg above is a no-op by then).
			status, code, retry := commitFailure(err)
			writeError(w, r, status, code, retry,
				"commit spread (location was committed): %v", err)
			return
		}
		sess.mu.Lock()
		sess.history = append(sess.history, *spreadJSON(sess.miner.DS, ps))
		if sess.pendingSpread == ps {
			sess.pendingSpread = nil
		}
		sess.mu.Unlock()
	}
	// Persist the new belief state so a restart resumes from here (the
	// Put is ordered by the commitMu we still hold).
	sess.mu.Lock()
	snap, err := sess.snapshotLocked()
	sess.mu.Unlock()
	persisted := err == nil && s.storePut(snap) == nil
	// persistence reports the store health after the Put: "degraded"
	// tells the client its commit lives in memory only for now (the
	// server re-persists on heal, eviction, snapshot or drain).
	writeJSON(w, http.StatusOK, map[string]any{
		"iterations":   sess.miner.Iteration(),
		"modelVersion": sess.miner.Snapshot().Version(),
		"persisted":    persisted,
		"persistence":  s.health.state(),
	})
}

// commitFailure maps a failed commit to its status, envelope code and
// retry hint. A deadline is back-pressure (503, retry later); a
// constraint system the refit cannot enforce is the client's pattern
// being infeasible against its belief state (422: a retry fails the
// same way); anything else is a server fault.
func commitFailure(err error) (status int, code string, retryAfter time.Duration) {
	switch {
	case errors.Is(err, background.ErrDeadline):
		return http.StatusServiceUnavailable, errDeadline, time.Second
	case errors.Is(err, background.ErrInfeasible):
		return http.StatusUnprocessableEntity, errModelInfeasible, 0
	}
	return http.StatusInternalServerError, errInternal, 0
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	sess := s.withSession(w, r)
	if sess == nil {
		return
	}
	if !sess.lockIdle(w, r) {
		return
	}
	pl := sess.pendingLoc
	v := sess.miner.Snapshot()
	sess.mu.Unlock()
	if pl == nil {
		writeError(w, r, http.StatusConflict, errNothingPending, 0, "nothing mined to explain")
		return
	}
	// Explaining reads the published version, so it never waits on (or
	// races) an in-flight commit building the next one.
	expl, err := sess.miner.ExplainLocationAt(v, pl)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, errInternal, 0, "explain: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, expl)
}

// handleModel exports the session's background-model state (the user's
// current belief state) as JSON, so sessions can be persisted and
// analyzed offline; see background.LoadJSON for restoring.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	sess := s.withSession(w, r)
	if sess == nil {
		return
	}
	if !sess.lockIdle(w, r) {
		return
	}
	v := sess.miner.Snapshot()
	sess.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	// Export the published version: immutable, so serialization is
	// consistent even while a commit builds the next one.
	if err := v.SaveJSON(w); err != nil {
		writeError(w, r, http.StatusInternalServerError, errInternal, 0, "export: %v", err)
	}
}

// handleSnapshot persists the session to the store immediately and
// reports the snapshot metadata — the explicit flush clients can use
// before tearing a process down.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sess := s.withSession(w, r)
	if sess == nil {
		return
	}
	// commitMu orders this Put with commit-path persists so a stale
	// snapshot can never overwrite a fresh one (lock order commitMu →
	// sess.mu, same as everywhere).
	sess.commitMu.Lock()
	defer sess.commitMu.Unlock()
	if !sess.lockIdle(w, r) {
		return
	}
	snap, err := sess.snapshotLocked()
	sess.mu.Unlock()
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, errInternal, 0, "snapshot: %v", err)
		return
	}
	// The explicit flush is the one persist whose failure the client
	// must hear about: answer 503 with a retry hint instead of claiming
	// durability. The attempt doubles as a heal probe while degraded.
	if err := s.storePut(snap); err != nil {
		writeError(w, r, http.StatusServiceUnavailable, errStoreDegraded, degradedRetryAfter,
			"persisting snapshot: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":         snap.ID,
		"iterations": snap.Iterations,
		"savedAt":    snap.SavedAt,
		"modelBytes": len(snap.Model),
	})
}

// handleHandoff flushes the session durably and evicts it from this
// process's memory, leaving the snapshot in the store for another shard
// to adopt — the migration primitive of the cluster tier (DESIGN.md
// §12). The router calls it on the shard losing ownership of a session,
// then routes the next request to the new owner, which restores from
// the shared store transparently. Unlike DELETE, no tombstone is
// written and the store entry survives; unlike LRU eviction, a flush
// failure is surfaced (503) instead of silently keeping the session —
// migrating without a durable snapshot would hand the new owner stale
// state. Idempotent: handing off a session this process does not hold
// in memory succeeds without touching the store.
func (s *Server) handleHandoff(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		// Not live here: nothing to flush. Whether the id exists at all
		// is the adopting shard's question (restore-on-miss 404s there).
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "live": false})
		return
	}
	// Lock order commitMu → sess.mu → s.mu, same as tryEvict: the
	// commitMu hold keeps a concurrent commit from interleaving its Put
	// between our flush and the close.
	sess.commitMu.Lock()
	defer sess.commitMu.Unlock()
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "live": false})
		return
	}
	if sess.mines > 0 {
		// An in-flight mine holds references into this process's model
		// state; migrating under it would strand the job. The router
		// retries after the job drains.
		sess.mu.Unlock()
		writeError(w, r, http.StatusConflict, errMineInProgress, time.Second,
			"mine in progress; retry handoff when the job finishes")
		return
	}
	snap, err := sess.snapshotLocked()
	if err != nil {
		sess.mu.Unlock()
		writeError(w, r, http.StatusInternalServerError, errInternal, 0, "handoff snapshot: %v", err)
		return
	}
	if err := s.storePut(snap); err != nil {
		sess.mu.Unlock()
		writeError(w, r, http.StatusServiceUnavailable, errStoreDegraded, degradedRetryAfter,
			"handoff flush: %v", err)
		return
	}
	sess.closed = true
	sess.mu.Unlock()
	s.mu.Lock()
	if s.sessions[id] == sess {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	engine.EvictLanguage(sess.miner.DS)
	writeJSON(w, http.StatusOK, map[string]any{
		"id":         id,
		"live":       true,
		"iterations": snap.Iterations,
		"modelBytes": len(snap.Model),
	})
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	sess := s.withSession(w, r)
	if sess == nil {
		return
	}
	if !sess.lockOpen(w, r) {
		return
	}
	defer sess.mu.Unlock()
	if sess.history == nil {
		writeJSON(w, http.StatusOK, []PatternJSON{})
		return
	}
	writeJSON(w, http.StatusOK, sess.history)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.pool.List())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var wait time.Duration
	if ms := r.URL.Query().Get("waitMs"); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n < 0 {
			writeError(w, r, http.StatusBadRequest, errBadRequest, 0, "bad waitMs %q", ms)
			return
		}
		const maxLongPoll = 60 * time.Second
		wait = time.Duration(n) * time.Millisecond
		if wait > maxLongPoll {
			wait = maxLongPoll
		}
	}
	inf, ok := s.pool.Wait(r.Context(), id, wait)
	if !ok {
		writeError(w, r, http.StatusNotFound, errNotFound, 0, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, inf)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	inf, ok := s.pool.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, errNotFound, 0, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, inf)
}
