// Package server exposes the iterative miner as a JSON HTTP API with
// per-user sessions — the integration target the paper's future work
// names (§V: "we aim to integrate this method with SIDE, our online
// tool for exploration of numerical data"). A session holds a dataset
// (a builtin replica is shared by every session on it) and an evolving
// background model; the client mines, inspects and commits patterns
// interactively, and the server keeps the belief state between
// requests.
//
// Serving is job-oriented: every mine call is enqueued on a bounded
// worker pool (package jobs), so an expensive search occupies a worker,
// not an HTTP handler goroutine, and a burst of mines degrades into
// queueing latency rather than unbounded concurrency. Clients either
// wait for the result in the same request (the default), or pass
// "async": true and poll /api/v1/jobs/{id} (optionally long-polling with
// ?waitMs=). Sessions are persisted as snapshots to a pluggable Store
// (in-memory or a disk directory) on create, commit and eviction, and
// are transparently restored on first touch — a restart or a second
// server process sharing the store does not lose belief state. An LRU
// cap and an idle TTL bound the number of live in-memory sessions.
//
// Every route lives under /api/v1 (APIPrefix), and every error is one
// envelope {"error":{"code","message","retryAfterMs?"}}; mine, commit
// and job responses carry a modelVersion stamp. A session accepts any
// number of concurrent mines while commits proceed: each mine pins the
// immutable background-model version published at its start
// (copy-on-write — see internal/background.ModelVersion), so mines
// never serialize behind a commit and report which belief state they
// reflect.
//
// Endpoints (all JSON):
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
//	POST   /api/v1/sessions/{id}/handoff     flush and evict, for another shard to adopt
//	GET    /api/v1/jobs                      list mine jobs
//	GET    /api/v1/jobs/{id}[?waitMs=N]      job status/result, optionally long-polled
//	DELETE /api/v1/jobs/{id}                 cancel a queued or running job
//	GET    /api/v1/healthz                   liveness probe (always 200 while serving)
//	GET    /api/v1/readyz                    readiness probe (503: draining/degraded/saturated)
//	POST   /api/v1/drain[?timeoutMs=N]       quiesce: stop intake, flush sessions durably
//
// Persistence is resilient rather than assumed: each store write is
// one attempt (a replicated store's per-replica circuit breakers are
// the only back-off), and when it fails the server enters degraded
// mode — serving continues from memory, commit/create responses carry
// "persistence":"degraded", the explicit snapshot endpoint answers 503
// store_degraded with a retry hint, and the first successful write
// heals the state automatically. See DESIGN.md §11 for the failure
// model.
package server

import (
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
	"weak"

	"repro/internal/background"
	"repro/internal/core"
	"repro/internal/dataset"
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
	// health tracks the degraded-mode flag; every persist path routes
	// through storePut (retry.go), one store.Put per call.
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

	mu          sync.Mutex
	miner       *core.Miner
	mineTimeout time.Duration // per-mine search budget (0 = none)
	closed      bool          // deleted or evicted; blocks queued requests
	mines       int           // mine jobs queued or running
	pending     pending
	history     []PatternJSON
	// log holds the committed patterns in commit order, parallel to
	// history: the payload a snapshot persists and a restore replays.
	log []logEntry
	// iterations mirrors miner.Iteration() for lock-free reads: info()
	// serves session listings without waiting behind state mutations.
	iterations atomic.Int64
	// lastUsed (unix nanos) orders sessions for LRU/TTL eviction.
	lastUsed atomic.Int64
}

// pending is what the latest mine left for a commit: its location,
// the spread mined for it (nil unless the mine asked for one), and
// preview, the spread preview's fork on which that location was
// committed (core.Miner.PreviewSpread; nil exactly when spread is).
// They are one value so a commit never pairs one mine's pattern with
// another mine's fork, and a commit consumes all of it or none of it.
type pending struct {
	loc     *pattern.Location
	spread  *pattern.Spread
	preview *core.Miner
}

func (sess *session) touch() { sess.lastUsed.Store(time.Now().UnixNano()) }

// lockOpen acquires the session lock and reports whether the session is
// still live. A request that grabbed the session just before a DELETE
// (or an eviction) removed it from the map would otherwise run after
// the teardown, against state that is no longer served or persisted.
func (sess *session) lockOpen(w http.ResponseWriter) bool {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		WriteError(w, http.StatusNotFound, errNotFound, 0, "session deleted")
		return false
	}
	return true
}

// Caps on client-requested search settings that size allocations or
// unbounded work: numSplits grows the condition language (one cached
// extension bitset per condition), beamWidth multiplies the per-level
// candidate batch, and depth multiplies the number of levels.
const (
	maxNumSplits   = 64
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
		health:     &storeHealth{},
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

// APIPrefix is the one mount every route lives under.
const APIPrefix = "/api/v1"

// Handler returns the API routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.routes(mux)
	return mux
}

// routes registers every endpoint. All route registration goes through
// this function, under APIPrefix (cmd/apicheck enforces both).
func (s *Server) routes(mux *http.ServeMux) {
	mux.HandleFunc("POST "+APIPrefix+"/sessions", s.handleCreate)
	mux.HandleFunc("GET "+APIPrefix+"/sessions", s.handleList)
	mux.HandleFunc("DELETE "+APIPrefix+"/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST "+APIPrefix+"/sessions/{id}/mine", s.handleMine)
	mux.HandleFunc("POST "+APIPrefix+"/sessions/{id}/commit", s.handleCommit)
	mux.HandleFunc("GET "+APIPrefix+"/sessions/{id}/explain", s.handleExplain)
	mux.HandleFunc("GET "+APIPrefix+"/sessions/{id}/history", s.handleHistory)
	mux.HandleFunc("GET "+APIPrefix+"/sessions/{id}/model", s.handleModel)
	mux.HandleFunc("POST "+APIPrefix+"/sessions/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST "+APIPrefix+"/sessions/{id}/handoff", s.handleHandoff)
	mux.HandleFunc("GET "+APIPrefix+"/jobs", s.handleJobList)
	mux.HandleFunc("GET "+APIPrefix+"/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE "+APIPrefix+"/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET "+APIPrefix+"/healthz", s.handleHealthz)
	mux.HandleFunc("GET "+APIPrefix+"/readyz", s.handleReadyz)
	mux.HandleFunc("POST "+APIPrefix+"/drain", s.handleDrain)
}

// CreateRequest configures a new session.
type CreateRequest struct {
	// ID, when set, requests a specific session id instead of a
	// server-generated one (letters, digits, '-', '_'; max 64 chars). A
	// taken id — live, recently deleted, or present in the store —
	// answers 409 session_exists; an id the store cannot check answers
	// 503 store_degraded with a retry hint. This is the handle the
	// cluster router uses: it must know a session's id *before* placing
	// it on a shard, because the consistent-hash ring maps ids to shards.
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
	// TopK is accepted and ignored: a mine answers with the single best
	// pattern, which is the same for every result-log size, so the
	// server's searches keep a one-entry log. The field stays on the
	// wire for clients that send it.
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

// WriteJSON is the single success-response writer (cmd/apicheck fails
// the build if a handler sets a status any other way; the cluster
// router answers through it too). It marshals before committing the
// status, so a value JSON cannot encode — a NaN or infinite float —
// answers 500 internal instead of a 2xx with an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, errInternal, 0, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// Error codes carried in the error envelope. Codes are part of
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
	errIncompatible    = "snapshot_incompatible"
	errStoreDegraded   = "store_degraded"
	errDraining        = "draining"
	errModelInfeasible = "model_infeasible"
	errNoPattern       = "no_pattern"
)

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMs, when present, is the server's hint for how long to
	// back off before retrying (503s and transient 409s).
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}

// WriteError is the single error-response writer (cmd/apicheck fails
// the build if a handler bypasses it; the cluster router answers its
// own errors through it too): every error is the envelope
// {"error":{"code","message","retryAfterMs?"}}.
func WriteError(w http.ResponseWriter, status int, code string, retryAfter time.Duration, format string, args ...any) {
	body := errorBody{Code: code, Message: fmt.Sprintf(format, args...)}
	if retryAfter > 0 {
		body.RetryAfterMs = retryAfter.Milliseconds()
	}
	WriteJSON(w, status, map[string]errorBody{"error": body})
}

// builtinGenerators are the replicas a create request can name.
var builtinGenerators = map[string]func(seed int64) *dataset.Dataset{
	"synthetic": func(seed int64) *dataset.Dataset { return gen.Synthetic620(seed).DS },
	"crime":     func(seed int64) *dataset.Dataset { return gen.CrimeLike(seed).DS },
	"mammals":   func(seed int64) *dataset.Dataset { return gen.MammalsLike(seed).DS },
	"socio":     func(seed int64) *dataset.Dataset { return gen.SocioEconLike(seed).DS },
	"water":     func(seed int64) *dataset.Dataset { return gen.WaterQualityLike(seed).DS },
}

// builtins shares each generated replica, by (name, seed), for as long
// as any session on any in-process server holds it, so concurrent
// sessions and a handoff's restore reuse one dataset and its one cached
// Language. Entries are weak: once the last session is gone the
// collector frees the replica, which retires its entry here and its
// Languages in the engine.
var builtins = struct {
	sync.Mutex
	m map[builtinKey]weak.Pointer[dataset.Dataset]
}{m: map[builtinKey]weak.Pointer[dataset.Dataset]{}}

type builtinKey struct {
	name string
	seed int64
}

// dropBuiltin is a collected replica's cleanup. It deletes only the
// entry still holding that replica's weak pointer: a key a newer
// replica has taken stays.
func dropBuiltin(wp weak.Pointer[dataset.Dataset]) {
	builtins.Lock()
	defer builtins.Unlock()
	for key, have := range builtins.m {
		if have == wp {
			delete(builtins.m, key)
		}
	}
}

func buildDataset(req *CreateRequest) (*dataset.Dataset, error) {
	name := strings.ToLower(req.Dataset)
	if name == "csv" {
		if req.CSV == "" {
			return nil, fmt.Errorf("dataset \"csv\" needs a csv field")
		}
		return dataset.ReadCSV(strings.NewReader(req.CSV))
	}
	generate, ok := builtinGenerators[name]
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", req.Dataset)
	}
	key := builtinKey{name, req.Seed}
	if key.seed == 0 {
		key.seed = 1
	}
	builtins.Lock()
	ds := builtins.m[key].Value()
	builtins.Unlock()
	if ds != nil {
		return ds, nil
	}
	ds = generate(key.seed) // outside the lock: other creates must not queue behind it
	builtins.Lock()
	defer builtins.Unlock()
	if have := builtins.m[key].Value(); have != nil { // lost the race; share the winner
		return have, nil
	}
	wp := weak.Make(ds)
	builtins.m[key] = wp
	runtime.AddCleanup(ds, dropBuiltin, wp)
	return ds, nil
}

// newSession builds a session from a create request — the one
// construction path shared by POST /api/v1/sessions and snapshot restore,
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
	if clamped.BeamWidth > maxBeamWidth {
		clamped.BeamWidth = maxBeamWidth
	}
	if clamped.Depth > maxSearchDepth {
		clamped.Depth = maxSearchDepth
	}
	// A mine returns only the best pattern, and a beam search's best
	// pattern does not depend on its log size (DESIGN §6), so the
	// search keeps a one-entry log and ignores the requested TopK.
	cfg := core.Config{
		Search: search.Params{
			BeamWidth:   clamped.BeamWidth,
			MaxDepth:    clamped.Depth,
			TopK:        1,
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
	// core.NewMiner rejects γ and η that would make SI non-finite
	// (si.Params.Validate); γ = η = 0 asks for the defaults.
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
		WriteError(w, http.StatusServiceUnavailable, errDraining, degradedRetryAfter,
			"server is draining; no new sessions")
		return
	}
	var req CreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, errBadRequest, 0, "invalid JSON: %v", err)
		return
	}
	if req.ID != "" && !validID(req.ID) {
		WriteError(w, http.StatusBadRequest, errBadRequest, 0,
			"invalid session id %q (letters, digits, '-', '_'; max 64 chars)", req.ID)
		return
	}
	sess, err := newSession(&req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, errBadRequest, 0, "%v", err)
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
		var probeErr error
		if !taken {
			if taken, probeErr = s.storeHolds(id); taken || probeErr != nil {
				s.mu.Lock()
				if s.sessions[id] == sess {
					delete(s.sessions, id)
				}
				s.mu.Unlock()
			}
		}
		if probeErr != nil {
			// The store cannot say whether another shard owns the id, so
			// neither a 409 nor a create would be true: ask for a retry.
			WriteError(w, http.StatusServiceUnavailable, errStoreDegraded, degradedRetryAfter,
				"checking whether session %q exists: %v", id, probeErr)
			return
		}
		if taken {
			WriteError(w, http.StatusConflict, errSessionExists, 0,
				"session %q already exists", id)
			return
		}
	} else {
		s.mu.Lock()
		// Probe for a free id: another process sharing the store (or a
		// restored set of sessions) may already own the next counter value,
		// and a Put under a reused id would silently overwrite its snapshot.
		// The first store error ends the probe and keeps that id: a store
		// that cannot answer cannot take the Put either, so the session
		// starts with degraded persistence instead of probing on under
		// s.mu. The probe count is bounded for a store that claims every
		// id. Two processes creating at the same instant can still race
		// the probe — shared DirStores are for restart/failover
		// continuity, not coordination-free concurrent writes (the cluster
		// router avoids the race entirely by creating with explicit ids).
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
			if taken, _ := s.storeHolds(id); taken {
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
	WriteJSON(w, http.StatusCreated, inf)
}

// storeHolds reports whether the store holds a snapshot under id. A
// corrupt snapshot holds its id too. Any other store error is returned,
// since the store then cannot tell.
func (s *Server) storeHolds(id string) (bool, error) {
	_, err := s.store.Get(id)
	switch {
	case err == nil || errors.Is(err, ErrCorrupt):
		return true, nil
	case errors.Is(err, ErrNotFound):
		return false, nil
	}
	return false, err
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

// restoreFromStore rebuilds a session from its snapshot by replaying
// its commit log (restoreSession): same dataset (deterministic in the
// create request), the same commits in the same order, so the same
// model to the bit, checked against the sealed digest.
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
	sess, err := restoreSession(snap)
	if err != nil {
		return nil, err
	}
	sess.id = id
	sess.touch()
	s.mu.Lock()
	if t, dead := s.tombstones[id]; dead && time.Since(t) < tombstoneTTL {
		// A DELETE ran while we were rebuilding: honour it.
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	if have := s.sessions[id]; have != nil { // lost a restore race
		s.mu.Unlock()
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

// snapshotLocked serializes the session's durable state: its commit
// log and the digest of its published model, never the model itself.
// Caller holds sess.mu (for log/history/iterations consistency) and, on
// every path that goes on to Put, commitMu (so the published version,
// log, history and iteration count belong to the same commit). Pending
// (uncommitted) patterns are ephemeral by design and not part of the
// snapshot.
func (sess *session) snapshotLocked() (*Snapshot, error) {
	payload, err := sess.encodeLogLocked()
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{
		ID:         sess.id,
		Create:     sess.create,
		Model:      payload,
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
	WriteJSON(w, http.StatusOK, out)
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
		// Closing stops requests still queued on the session lock.
		sess.mu.Lock()
		sess.closed = true
		sess.mu.Unlock()
	}
	// A session can exist only as a stored snapshot (evicted, or from a
	// previous process); deleting that is a successful delete too. A
	// failing store removal must surface: claiming "deleted" while the
	// snapshot survives would let the session resurrect after the
	// tombstone expires.
	hadSnapshot, delErr := s.store.Delete(id)
	if delErr != nil {
		WriteError(w, http.StatusInternalServerError, errInternal, 0,
			"session removed from memory but snapshot deletion failed: %v", delErr)
		return
	}
	if !ok && !hadSnapshot {
		WriteError(w, http.StatusNotFound, errNotFound, 0, "no session %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) withSession(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("id")
	sess, err := s.lookup(id)
	switch {
	case errors.Is(err, ErrNotFound):
		WriteError(w, http.StatusNotFound, errNotFound, 0, "no session %q", id)
		return nil
	case errors.Is(err, ErrCorrupt):
		// The stored snapshot failed integrity validation. DirStore has
		// already quarantined the file; the structured envelope tells the
		// client the session's persisted state is unrecoverable (rather
		// than transient), distinct from a plain internal error.
		WriteError(w, http.StatusInternalServerError, errSnapshotCorrupt, 0,
			"session %q: %v", id, err)
		return nil
	case errors.Is(err, ErrIncompatible):
		// The snapshot is sound, but this binary cannot rebuild the belief
		// state it recorded (say, a replay whose model differs from the
		// sealed digest). It stays in the store.
		WriteError(w, http.StatusInternalServerError, errIncompatible, 0,
			"session %q: %v", id, err)
		return nil
	case err != nil:
		// A snapshot exists but could not be restored — surface the
		// cause instead of a misleading 404.
		WriteError(w, http.StatusInternalServerError, errInternal, 0,
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
		WriteError(w, http.StatusServiceUnavailable, errDraining, degradedRetryAfter,
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
			WriteError(w, http.StatusBadRequest, errBadRequest, 0, "invalid JSON: %v", err)
			return
		}
	}
	// Claim a mine slot under the lock, then run the search on a pool
	// worker with no session lock held — concurrent sessions never
	// serialize behind one search, and list/history stay responsive
	// during a long mine. A session takes any number of slots, since
	// every mine runs against the model version published at its start.
	if !sess.lockOpen(w) {
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

	// The pool releases the mine slot at the first of a cancel request
	// and the job's end, so a cancelled mine (queued or mid-search)
	// frees its slot before the Fn unwinds, and a sync mine that
	// finished has released it before its response is written: the
	// client's next request never finds it held.
	job, err := s.pool.Submit("mine "+sess.id, budget, s.mineJob(sess, req),
		func() { s.releaseMine(sess) })
	if err != nil {
		s.releaseMine(sess)
		WriteError(w, http.StatusServiceUnavailable, errQueueFull, time.Second,
			"mine queue full, retry later: %v", err)
		return
	}
	if req.Async {
		inf, _ := s.pool.Get(job.ID())
		WriteJSON(w, http.StatusAccepted, inf)
		return
	}
	inf, _ := s.pool.Wait(r.Context(), job.ID(), s.opts.SyncWait)
	s.writeMineOutcome(w, inf)
}

// releaseMine returns one mine slot.
func (s *Server) releaseMine(sess *session) {
	sess.mu.Lock()
	sess.mines--
	sess.mu.Unlock()
}

// writeMineOutcome maps a finished (or still-running) mine job to the
// synchronous response the classic API contract promises.
func (s *Server) writeMineOutcome(w http.ResponseWriter, inf jobs.Info) {
	switch inf.Status {
	case jobs.StatusDone:
		resp, ok := inf.Result.(*MineResponse)
		if !ok {
			WriteError(w, http.StatusInternalServerError, errInternal, 0,
				"mine job returned %T", inf.Result)
			return
		}
		// Annotate a copy: the original is shared with concurrent
		// GET /api/v1/jobs/{id} marshalling.
		withJob := *resp
		withJob.Job = inf.ID
		WriteJSON(w, http.StatusOK, &withJob)
	case jobs.StatusFailed:
		// A job records its error as text; ErrNoPattern's is the one
		// failure that is the data's answer, not the server's fault.
		if inf.Error == core.ErrNoPattern.Error() {
			WriteError(w, http.StatusUnprocessableEntity, errNoPattern, 0,
				"mining: the search ran to completion and found no pattern on this belief state")
			return
		}
		WriteError(w, http.StatusInternalServerError, errInternal, 0, "mining: %s", inf.Error)
	case jobs.StatusCancelled:
		WriteError(w, http.StatusConflict, errCancelled, 0, "mine job %s cancelled", inf.ID)
	default:
		// SyncWait elapsed (or the client went away): hand over the job
		// id so the client can keep polling.
		WriteJSON(w, http.StatusAccepted, inf)
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
			if !errors.Is(err, core.ErrNoPattern) {
				return nil, err
			}
			// The search scored nothing, so an earlier mine's pattern
			// must not be committed on the strength of this result. A
			// search that ran to completion fails the job with
			// ErrNoPattern, which a sync mine answers 422 no_pattern.
			sess.mu.Lock()
			sess.pending = pending{}
			sess.mu.Unlock()
			if !log.TimedOut {
				return nil, err
			}
			// A budget that expired first is a timeout, not a failure.
			return &MineResponse{
				Evaluated:    log.Evaluated,
				BoundEvals:   log.BoundEvals,
				Pruned:       log.Pruned,
				Status:       MineStatusTimeout,
				TimedOut:     true,
				ModelVersion: v.Version(),
			}, nil
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
		next := pending{loc: loc}
		if req.Spread {
			// The two-step procedure needs the location committed before
			// the direction search. The preview does both on a fork of
			// the pinned version, so nothing is committed until the
			// client asks for it, under the job's budget: on expiry the
			// direction search degrades to its best so far, and the
			// response is marked partial.
			progress("spread preview")
			sp, preview, spTimedOut, err := sess.miner.PreviewSpread(v, loc, core.MineOptions{Deadline: deadline})
			switch {
			case errors.Is(err, background.ErrDeadline):
				// The budget ran out in the preview's location refit,
				// after the location was mined: a partial result, not a
				// job failure. The location is kept; only the spread is
				// dropped.
				resp.Status, resp.TimedOut = MineStatusPartial, true
			case err != nil:
				return nil, fmt.Errorf("spread preview: %w", err)
			default:
				if spTimedOut {
					resp.Status, resp.TimedOut = MineStatusPartial, true
				}
				resp.Spread = spreadJSON(sess.miner.DS, sp)
				next.spread, next.preview = sp, preview
			}
		}
		sess.mu.Lock()
		if !sess.closed {
			sess.pending = next
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
	// claim and publish windows. Concurrent mines (which read
	// published versions and take neither lock while searching) proceed
	// in parallel with the refit. The pending claim happens after
	// commitMu is held, so two racing commits cannot both consume the
	// same pending pattern — the loser sees the cleared slot and 409s.
	sess.commitMu.Lock()
	defer sess.commitMu.Unlock()
	if !sess.lockOpen(w) {
		return
	}
	p := sess.pending
	sess.mu.Unlock()
	if p.loc == nil {
		WriteError(w, http.StatusConflict, errNothingPending, 0, "nothing mined to commit")
		return
	}
	// The commit's coordinate descent gets the session's mine budget
	// (clamped like a mine request): background.Model.refit checks the
	// deadline each sweep and fails atomically, so one degenerate
	// constraint system cannot hold the commit lock unboundedly. A
	// deadline failure is back-pressure, not a server error. Deadline
	// lives on the live model, which only commitMu holders touch.
	model := sess.miner.Model
	model.Deadline = time.Now().Add(s.clampBudget(sess.mineTimeout))
	defer func() { model.Deadline = time.Time{} }()
	// One call commits the location and its spread, if any, and
	// publishes once. On error nothing was committed and the pending
	// pattern stays, so the client keeps what was mined; a retry after
	// a deadline restarts the descent under a fresh budget.
	if err := sess.miner.Commit(p.loc, p.spread, p.preview); err != nil {
		status, code, retry := commitFailure(err)
		WriteError(w, status, code, retry, "commit: %v", err)
		return
	}
	// Record the commit and persist the new belief state, so a restart
	// resumes from here (the Put is ordered by the commitMu we still
	// hold). The pending slot is cleared only if it still holds the
	// committed pattern — a concurrent mine may have published a
	// fresher one in the meantime, which must survive.
	sess.mu.Lock()
	sess.history = append(sess.history, *locationJSON(sess.miner.DS, p.loc))
	sess.log = append(sess.log, locationEntry(p.loc))
	if p.spread != nil {
		sess.history = append(sess.history, *spreadJSON(sess.miner.DS, p.spread))
		sess.log = append(sess.log, spreadEntry(p.spread))
	}
	if sess.pending == p {
		sess.pending = pending{}
	}
	sess.iterations.Store(int64(sess.miner.Iteration()))
	snap, err := sess.snapshotLocked()
	sess.mu.Unlock()
	persisted := err == nil && s.storePut(snap) == nil
	// persistence reports the store health after the Put: "degraded"
	// tells the client its commit lives in memory only for now (the
	// server re-persists on heal, eviction, snapshot or drain).
	WriteJSON(w, http.StatusOK, map[string]any{
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
	if !sess.lockOpen(w) {
		return
	}
	pl := sess.pending.loc
	v := sess.miner.Snapshot()
	sess.mu.Unlock()
	if pl == nil {
		WriteError(w, http.StatusConflict, errNothingPending, 0, "nothing mined to explain")
		return
	}
	// Explaining reads the published version, so it never waits on (or
	// races) an in-flight commit building the next one.
	expl, err := sess.miner.ExplainLocationAt(v, pl)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, errInternal, 0, "explain: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, expl)
}

// handleModel exports the session's background-model state (the user's
// current belief state) as JSON, so it can be analyzed offline or
// imported with background.LoadJSONExact. Session persistence does not
// use it: snapshots store the commit log.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	sess := s.withSession(w, r)
	if sess == nil {
		return
	}
	if !sess.lockOpen(w) {
		return
	}
	v := sess.miner.Snapshot()
	sess.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	// Export the published version: immutable, so serialization is
	// consistent even while a commit builds the next one.
	if err := v.SaveJSON(w); err != nil {
		WriteError(w, http.StatusInternalServerError, errInternal, 0, "export: %v", err)
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
	if !sess.lockOpen(w) {
		return
	}
	snap, err := sess.snapshotLocked()
	sess.mu.Unlock()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, errInternal, 0, "snapshot: %v", err)
		return
	}
	// The explicit flush is the one persist whose failure the client
	// must hear about: answer 503 with a retry hint instead of claiming
	// durability. The attempt doubles as a heal probe while degraded.
	if err := s.storePut(snap); err != nil {
		WriteError(w, http.StatusServiceUnavailable, errStoreDegraded, degradedRetryAfter,
			"persisting snapshot: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
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
		WriteJSON(w, http.StatusOK, map[string]any{"id": id, "live": false})
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
		WriteJSON(w, http.StatusOK, map[string]any{"id": id, "live": false})
		return
	}
	if sess.mines > 0 {
		// An in-flight mine holds references into this process's model
		// state; migrating under it would strand the job. The router
		// retries after the job drains.
		sess.mu.Unlock()
		WriteError(w, http.StatusConflict, errMineInProgress, time.Second,
			"mine in progress; retry handoff when the job finishes")
		return
	}
	snap, err := sess.snapshotLocked()
	if err != nil {
		sess.mu.Unlock()
		WriteError(w, http.StatusInternalServerError, errInternal, 0, "handoff snapshot: %v", err)
		return
	}
	if err := s.storePut(snap); err != nil {
		sess.mu.Unlock()
		WriteError(w, http.StatusServiceUnavailable, errStoreDegraded, degradedRetryAfter,
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
	WriteJSON(w, http.StatusOK, map[string]any{
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
	if !sess.lockOpen(w) {
		return
	}
	defer sess.mu.Unlock()
	if sess.history == nil {
		WriteJSON(w, http.StatusOK, []PatternJSON{})
		return
	}
	WriteJSON(w, http.StatusOK, sess.history)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.pool.List())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var wait time.Duration
	if ms := r.URL.Query().Get("waitMs"); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, errBadRequest, 0, "bad waitMs %q", ms)
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
		WriteError(w, http.StatusNotFound, errNotFound, 0, "no job %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, inf)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	inf, ok := s.pool.Cancel(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, errNotFound, 0, "no job %q", r.PathValue("id"))
		return
	}
	WriteJSON(w, http.StatusOK, inf)
}
