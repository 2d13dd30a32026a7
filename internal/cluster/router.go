package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// The router is the cluster's single client-facing process: it speaks
// the same /api/v1 surface and error envelope as one sisd-server, but
// consistent-hashes each session id onto a shard and reverse-proxies
// the call there. It holds no session state — routing is a pure
// function of (membership, health), so any number of router replicas,
// and a restarted router, agree on every assignment.
//
// Shard health drives two separate decisions:
//
//   - routing eligibility (who owns keys): ready, saturated and
//     degraded shards keep ownership. A degraded shard MUST keep its
//     sessions — its store writes are failing, so the freshest state
//     exists only in its memory and moving the key would resurrect a
//     stale snapshot. Draining and down shards lose ownership: a drain
//     flushed every session durably first, and a dead shard's committed
//     state reached the shared store on the commit path.
//   - load shedding: the router never queues. A request for a shard
//     whose mine queue is saturated is forwarded and the shard's own
//     503 queue_full + retryAfterMs propagates; when no shard at all is
//     eligible the router answers its own 503 with the same envelope
//     discipline.
//
// Ring changes migrate sessions by snapshot handoff. When a shard
// rejoins the eligible set, the router first asks each current owner to
// hand off (flush + evict) every live session the new ring assigns
// elsewhere, and only then publishes the new eligibility — so the new
// owner's restore-on-miss sees the freshest snapshot. Shard removals
// publish immediately; the failover walk re-homes their keys and the
// stale-write fence (server.storePut) keeps any lingering idle replica
// from clobbering the store later.

// State classifies one shard from the router's point of view, derived
// from its readyz probe (server.Readiness).
type State int32

const (
	// StateDown: probe failed, answered garbage, or the shard reported a
	// different shardId than configured (a miswired address is treated
	// as absent, not as someone else's shard).
	StateDown State = iota
	// StateReady: readyz 200.
	StateReady
	// StateSaturated: not ready only because the mine queue is full.
	StateSaturated
	// StateDegraded: persistence degraded; still owns its keys.
	StateDegraded
	// StateDraining: quiescing; ownership already moved on.
	StateDraining
)

func (s State) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateSaturated:
		return "saturated"
	case StateDegraded:
		return "degraded"
	case StateDraining:
		return "draining"
	default:
		return "down"
	}
}

// eligible reports whether a shard in this state owns its ring keys.
func (s State) eligible() bool {
	return s == StateReady || s == StateSaturated || s == StateDegraded
}

// serving reports whether fan-out reads (session/job listings, drain)
// should include the shard. Draining shards still answer reads.
func (s State) serving() bool { return s != StateDown }

// Shard names one sisd-server process: its stable id (the value the
// shard was started with via -shard-id) and its base URL
// ("http://host:port", no trailing slash).
type Shard struct {
	ID  string
	URL string
}

// Options configures a Router.
type Options struct {
	Shards []Shard
	// ProbeInterval between health sweeps (<=0 → 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one readyz probe (<=0 → 2s).
	ProbeTimeout time.Duration
	// Logf receives operational events (state transitions, handoffs).
	// Nil discards.
	Logf func(format string, args ...any)
}

type shardState struct {
	cfg   Shard
	state atomic.Int32
}

// Router implements http.Handler over the cluster.
type Router struct {
	opts   Options
	ring   *Ring
	byID   map[string]*shardState
	ids    []string // sorted
	client *http.Client
	logf   func(string, ...any)

	// eligible is the published ownership set, swapped atomically after
	// reconciliation so the request path never sees a half-migrated
	// ring. probeMu serializes probe sweeps (and their handoffs).
	eligible atomic.Pointer[map[string]bool]
	probeMu  sync.Mutex

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewRouter builds a router over a static shard membership. Call Start
// to begin health probing (until the first sweep completes, every shard
// counts as down) and Close to stop it.
func NewRouter(opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 500 * time.Millisecond
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	rt := &Router{
		opts: opts,
		byID: map[string]*shardState{},
		logf: opts.Logf,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if rt.logf == nil {
		rt.logf = func(string, ...any) {}
	}
	var ids []string
	for _, sh := range opts.Shards {
		sh.URL = strings.TrimRight(sh.URL, "/")
		if sh.ID == "" || sh.URL == "" {
			return nil, fmt.Errorf("cluster: shard needs both id and url (got id=%q url=%q)", sh.ID, sh.URL)
		}
		if _, dup := rt.byID[sh.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard id %q", sh.ID)
		}
		rt.byID[sh.ID] = &shardState{cfg: sh}
		ids = append(ids, sh.ID)
	}
	sort.Strings(ids)
	rt.ids = ids
	rt.ring = NewRing(ids, 0)
	// A pooled keep-alive transport sized for the shard fan-out.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 64 * len(ids)
	tr.MaxIdleConnsPerHost = 64
	tr.IdleConnTimeout = 90 * time.Second
	rt.client = &http.Client{Transport: tr}
	empty := map[string]bool{}
	rt.eligible.Store(&empty)
	return rt, nil
}

// Start runs one synchronous probe sweep (so the router can route as
// soon as Start returns) and then sweeps in the background every
// ProbeInterval until Close.
func (rt *Router) Start() {
	rt.ProbeOnce(context.Background())
	go func() {
		defer close(rt.done)
		tick := time.NewTicker(rt.opts.ProbeInterval)
		defer tick.Stop()
		for {
			select {
			case <-rt.stop:
				return
			case <-tick.C:
				rt.ProbeOnce(context.Background())
			}
		}
	}()
}

// Close stops the probe loop. Safe to call multiple times; only valid
// after Start.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	<-rt.done
}

// state returns the last probed state of a shard.
func (rt *Router) state(id string) State {
	return State(rt.byID[id].state.Load())
}

// ProbeOnce sweeps every shard's readyz, reconciles session placement
// if the eligible set grew, and publishes the new eligibility. Exported
// so tests (and the load harness) can drive health transitions
// deterministically instead of sleeping for the probe interval.
func (rt *Router) ProbeOnce(ctx context.Context) {
	rt.probeMu.Lock()
	defer rt.probeMu.Unlock()

	states := make([]State, len(rt.ids))
	rt.each(rt.ids, func(i int, sh Shard) { states[i] = rt.probe(ctx, sh) })

	next := make(map[string]bool, len(states))
	var joiners []string
	old := *rt.eligible.Load()
	for i, id := range rt.ids {
		st := states[i]
		if prev := rt.state(id); prev != st {
			rt.logf("cluster: shard %s %s -> %s", id, prev, st)
		}
		if st.eligible() {
			next[id] = true
			if !old[id] {
				joiners = append(joiners, id)
			}
		}
	}
	// Reconcile-before-publish: hand off sessions the new ring assigns
	// away from their current shard while the OLD eligibility is still
	// live, so no request lands on the new owner before its snapshot is
	// flushed. Removals need no such barrier — publish handles them via
	// the failover walk.
	if len(joiners) > 0 {
		rt.reconcile(ctx, old, next)
	}
	for i, id := range rt.ids {
		rt.byID[id].state.Store(int32(states[i]))
	}
	rt.eligible.Store(&next)
}

// each runs f concurrently for every shard in ids and waits for all of
// them. i indexes ids, so f can fill its own result slot without a lock.
func (rt *Router) each(ids []string, f func(i int, sh Shard)) {
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i, rt.byID[id].cfg)
		}()
	}
	wg.Wait()
}

// servingIDs returns the shards that answer reads, in id order.
func (rt *Router) servingIDs() []string {
	var ids []string
	for _, id := range rt.ids {
		if rt.state(id).serving() {
			ids = append(ids, id)
		}
	}
	return ids
}

// upstream sends one request to shard sh: its URL plus path, plus
// "?"+query when query is non-empty. Content-Type is the only header
// it forwards. The caller closes the response body.
func (rt *Router) upstream(ctx context.Context, sh Shard, method, path, query, contentType string, body io.Reader) (*http.Response, error) {
	url := sh.URL + path
	if query != "" {
		url += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadTarget, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return rt.client.Do(req)
}

// errBadTarget marks a request upstream could not build, as opposed to
// a shard that could not be reached.
var errBadTarget = errors.New("proxy")

// probe classifies one shard from its readyz response.
func (rt *Router) probe(ctx context.Context, sh Shard) State {
	ctx, cancel := context.WithTimeout(ctx, rt.opts.ProbeTimeout)
	defer cancel()
	resp, err := rt.upstream(ctx, sh, "GET", server.APIPrefix+"/readyz", "", "", nil)
	if err != nil {
		return StateDown
	}
	defer resp.Body.Close()
	var ready server.Readiness
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ready); err != nil {
		return StateDown
	}
	if ready.ShardID != "" && ready.ShardID != sh.ID {
		rt.logf("cluster: shard %s at %s reports shardId %q — treating as down", sh.ID, sh.URL, ready.ShardID)
		return StateDown
	}
	switch {
	case resp.StatusCode == http.StatusOK && ready.Ready:
		return StateReady
	case resp.StatusCode != http.StatusServiceUnavailable:
		return StateDown
	}
	// 503 with a parsed Readiness: rank the reasons. Draining wins (the
	// shard is leaving), then degraded (it must keep ownership), then
	// saturation (transient load).
	var saturated, degraded bool
	for _, reason := range ready.Reasons {
		switch {
		case reason == "draining":
			return StateDraining
		case strings.HasPrefix(reason, "store degraded"):
			degraded = true
		case reason == "mine queue full":
			saturated = true
		}
	}
	if degraded {
		return StateDegraded
	}
	if saturated {
		return StateSaturated
	}
	return StateDown
}

// reconcile moves sessions whose ownership changes under the new
// eligibility: for every shard in the new set, list its live sessions
// and hand off (flush + evict) the ones the new ring assigns elsewhere.
// On a *rejoining* shard every live session is handed off, even ones
// the ring assigns to it: a shard back from a partition may hold stale
// replicas of sessions that advanced elsewhere while it was out, and
// handoff is exactly the cure — the stale flush is dropped by the
// stale-write fence and the evict forces a fresh restore from the
// store on the next touch. A handoff that fails (mine in flight, shard
// hiccup) is logged and left in place — publishing anyway is safe
// because committed state is already durable and the fence disarms the
// old replica; only uncommitted pending patterns (ephemeral by design)
// are at risk.
func (rt *Router) reconcile(ctx context.Context, old, next map[string]bool) {
	isNext := func(id string) bool { return next[id] }
	for id := range next {
		rejoining := !old[id]
		sh := rt.byID[id].cfg
		var infos []server.SessionInfo
		if err := rt.fetch(ctx, sh, "GET", "/sessions", &infos); err != nil {
			rt.logf("cluster: reconcile: list %s: %v", id, err)
			continue
		}
		for _, inf := range infos {
			if inf.Persisted {
				continue // store-only: restore-on-miss needs no handoff
			}
			owner, ok := rt.ring.OwnerAmong(inf.ID, isNext)
			if !rejoining && (!ok || owner == id) {
				continue
			}
			if err := rt.fetch(ctx, sh, "POST", "/sessions/"+inf.ID+"/handoff", nil); err != nil {
				rt.logf("cluster: handoff %s from %s to %s: %v", inf.ID, id, owner, err)
				continue
			}
			rt.logf("cluster: migrated session %s: %s -> %s", inf.ID, id, owner)
		}
	}
}

// fetch makes one router-side call to path under server.APIPrefix on
// sh, bounded by ProbeTimeout. A 200 answer is decoded into out unless
// out is nil; any other status is an error quoting the answer.
func (rt *Router) fetch(ctx context.Context, sh Shard, method, path string, out any) error {
	ctx, cancel := context.WithTimeout(ctx, rt.opts.ProbeTimeout)
	defer cancel()
	resp, err := rt.upstream(ctx, sh, method, server.APIPrefix+path, "", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(out)
}

// owner resolves the shard currently owning a session id, or false when
// no shard is eligible.
func (rt *Router) owner(id string) (Shard, bool) {
	elig := *rt.eligible.Load()
	sid, ok := rt.ring.OwnerAmong(id, func(s string) bool { return elig[s] })
	if !ok {
		return Shard{}, false
	}
	return rt.byID[sid].cfg, true
}

// Handler returns the router's HTTP surface: the same routes a single
// sisd-server exposes, under the same server.APIPrefix mount.
func (rt *Router) Handler() http.Handler {
	const p = server.APIPrefix
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+p+"/sessions", rt.handleCreate)
	mux.HandleFunc("GET "+p+"/sessions", rt.handleList)
	mux.HandleFunc(p+"/sessions/{id}", rt.handleSession)
	mux.HandleFunc(p+"/sessions/{id}/{verb}", rt.handleSession)
	mux.HandleFunc("GET "+p+"/jobs", rt.handleJobList)
	mux.HandleFunc(p+"/jobs/{id}", rt.handleJob)
	mux.HandleFunc("GET "+p+"/healthz", rt.handleHealthz)
	mux.HandleFunc("GET "+p+"/readyz", rt.handleReadyz)
	mux.HandleFunc("POST "+p+"/drain", rt.handleDrain)
	return mux
}

// noShardRetry is the retry hint on the router's own 503s and 502s;
// it matches the serving layer's degraded hint.
const noShardRetry = time.Second

// writeNoShard answers the router's own 503: no shard is eligible to
// own the key right now.
func writeNoShard(w http.ResponseWriter) {
	server.WriteError(w, http.StatusServiceUnavailable, "no_shard", noShardRetry,
		"no shard available for this session")
}

// proxy forwards the client's request to sh with body, streaming it
// both ways. The shard's answer, including its 503 back-pressure
// envelope, is relayed untouched.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, sh Shard, body io.Reader) {
	resp, err := rt.upstream(r.Context(), sh, r.Method, r.URL.Path, r.URL.RawQuery, r.Header.Get("Content-Type"), body)
	switch {
	case errors.Is(err, errBadTarget):
		server.WriteError(w, http.StatusInternalServerError, "internal", 0, "%v", err)
	case err != nil:
		// The shard died between probe sweeps. Surface it as a retryable
		// 502; the next sweep will fail it over.
		server.WriteError(w, http.StatusBadGateway, "shard_unreachable", noShardRetry,
			"shard %s: %v", sh.ID, err)
	default:
		relay(w, sh, resp)
	}
}

// relay copies a shard's answer to the client and closes it: its
// Content-Type, an X-Sisd-Shard stamp naming the shard (so clients and
// the load harness can see placement), its status and its streamed
// body.
func relay(w http.ResponseWriter, sh Shard, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-Sisd-Shard", sh.ID)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// newSessionID generates a router-side session id. Ids must exist
// before placement — the ring maps id → shard — so the router, not the
// shard, mints them. 8 random bytes keep collisions out of reach; the
// "r" prefix keeps them visually distinct from shard-minted s0042 ids.
func newSessionID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return "r" + hex.EncodeToString(b[:]), nil
}

// handleCreate places a new session: parse the body, mint an id when
// the client didn't pin one, route by id, and forward. A taken id's 409
// passes through, minted or pinned.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad_request", 0, "read body: %v", err)
		return
	}
	var req server.CreateRequest
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &req); err != nil {
			server.WriteError(w, http.StatusBadRequest, "bad_request", 0, "bad JSON: %v", err)
			return
		}
	}
	if req.ID == "" {
		if req.ID, err = newSessionID(); err != nil {
			server.WriteError(w, http.StatusInternalServerError, "internal", 0, "mint id: %v", err)
			return
		}
	}
	body, err := json.Marshal(&req)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, "internal", 0, "marshal: %v", err)
		return
	}
	sh, ok := rt.owner(req.ID)
	if !ok {
		writeNoShard(w)
		return
	}
	r.Header.Set("Content-Type", "application/json")
	rt.proxy(w, r, sh, bytes.NewReader(body))
}

// handleSession routes every session-scoped call by its id.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sh, ok := rt.owner(id)
	if !ok {
		writeNoShard(w)
		return
	}
	rt.proxy(w, r, sh, r.Body)
}

// handleList fans the listing out to every serving shard and merges:
// live entries (stamped with their shard) win over persisted-only
// entries for the same id, and persisted-only duplicates (every shard
// sees the shared store) collapse to one.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	ids := rt.servingIDs()
	lists := make([][]server.SessionInfo, len(ids))
	rt.each(ids, func(i int, sh Shard) {
		if err := rt.fetch(r.Context(), sh, "GET", "/sessions", &lists[i]); err != nil {
			rt.logf("cluster: list %s: %v", sh.ID, err)
			lists[i] = nil
		}
	})
	merged := map[string]server.SessionInfo{}
	for _, infos := range lists {
		for _, inf := range infos {
			prev, seen := merged[inf.ID]
			if !seen || (prev.Persisted && !inf.Persisted) {
				merged[inf.ID] = inf
			}
		}
	}
	out := make([]server.SessionInfo, 0, len(merged))
	for _, inf := range merged {
		out = append(out, inf)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	server.WriteJSON(w, http.StatusOK, out)
}

// handleJobList merges every serving shard's job listing in shard-id
// order. Job ids are scoped to their pool, so concatenation is the
// correct merge.
func (rt *Router) handleJobList(w http.ResponseWriter, r *http.Request) {
	ids := rt.servingIDs()
	lists := make([][]json.RawMessage, len(ids))
	rt.each(ids, func(i int, sh Shard) {
		if err := rt.fetch(r.Context(), sh, "GET", "/jobs", &lists[i]); err != nil {
			rt.logf("cluster: jobs %s: %v", sh.ID, err)
			lists[i] = nil
		}
	})
	all := []json.RawMessage{}
	for _, jobs := range lists {
		all = append(all, jobs...)
	}
	server.WriteJSON(w, http.StatusOK, all)
}

// handleJob tries each serving shard in id order and relays the first
// non-404 answer — jobs are not ring-keyed, their pool is wherever the
// mine ran.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	for _, id := range rt.servingIDs() {
		sh := rt.byID[id].cfg
		resp, err := rt.upstream(r.Context(), sh, r.Method, r.URL.Path, r.URL.RawQuery, "", nil)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			continue
		}
		relay(w, sh, resp)
		return
	}
	server.WriteError(w, http.StatusNotFound, "not_found", 0, "no job %q on any shard", r.PathValue("id"))
}

// handleHealthz reports the router process plus each shard's last
// probed state — the operator's one-glance cluster view.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards := map[string]string{}
	for _, id := range rt.ids {
		shards[id] = rt.state(id).String()
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "role": "router", "shards": shards})
}

// handleReadyz: the router can take traffic iff at least one shard is
// eligible for ownership.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	elig := *rt.eligible.Load()
	eligible := make([]string, 0, len(elig))
	for id := range elig {
		eligible = append(eligible, id)
	}
	sort.Strings(eligible)
	code := http.StatusOK
	body := map[string]any{"ready": len(eligible) > 0, "eligible": eligible}
	if len(eligible) == 0 {
		code = http.StatusServiceUnavailable
		body["reasons"] = []string{"no eligible shards"}
	}
	server.WriteJSON(w, code, body)
}

// handleDrain fans the drain out to every serving shard and returns the
// per-shard reports keyed by shard id.
func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	ids := rt.servingIDs()
	raws := make([]json.RawMessage, len(ids))
	rt.each(ids, func(i int, sh Shard) {
		resp, err := rt.upstream(r.Context(), sh, "POST", r.URL.Path, r.URL.RawQuery, "", nil)
		if err != nil {
			raws[i], _ = json.Marshal(map[string]string{"error": err.Error()})
			return
		}
		defer resp.Body.Close()
		if raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20)); err == nil {
			raws[i] = raw
		}
	})
	reports := map[string]json.RawMessage{}
	for i, id := range ids {
		if raws[i] != nil {
			reports[id] = raws[i]
		}
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"shards": reports})
}
