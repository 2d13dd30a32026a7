package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/server"
)

// testShard is one in-process shard behind a blockable front: flipping
// block simulates a partition (the process is alive and holds its
// session memory, but the router cannot reach it) without the expense
// of real subprocesses — that end of the spectrum is covered by the
// loadgen cluster harness.
type testShard struct {
	id    string
	srv   *server.Server
	ts    *httptest.Server
	block atomic.Bool
}

func newTestCluster(t *testing.T, n int) (*Router, []*testShard) {
	t.Helper()
	store := server.NewMemStore()
	shards := make([]*testShard, n)
	cfgs := make([]Shard, n)
	for i := range shards {
		sh := &testShard{id: fmt.Sprintf("shard-%d", i)}
		sh.srv = server.NewWithOptions(server.Options{Store: store, ShardID: sh.id})
		inner := sh.srv.Handler()
		sh.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if sh.block.Load() {
				http.Error(w, "partitioned", http.StatusBadGateway)
				return
			}
			inner.ServeHTTP(w, r)
		}))
		shards[i] = sh
		cfgs[i] = Shard{ID: sh.id, URL: sh.ts.URL}
	}
	rt, err := NewRouter(Options{Shards: cfgs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeOnce(t.Context())
	t.Cleanup(func() {
		for _, sh := range shards {
			sh.ts.Close()
			sh.srv.Close()
		}
	})
	return rt, shards
}

// call drives the router handler directly (no extra listener hop).
func call(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rd)
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decode(t *testing.T, rec *httptest.ResponseRecorder, want int, out any) {
	t.Helper()
	if rec.Code != want {
		t.Fatalf("status %d, want %d; body %s", rec.Code, want, rec.Body)
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v", rec.Body, err)
		}
	}
}

func canonMine(t *testing.T, m *server.MineResponse) string {
	t.Helper()
	c := *m
	c.Job = ""
	c.BoundEvals = 0
	c.Pruned = 0
	raw, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestRouterPlacement: creates land on the ring owner, session-scoped
// calls follow the id, placement is stamped in X-Sisd-Shard, and the
// merged listing attributes each live session to its shard.
func TestRouterPlacement(t *testing.T) {
	rt, _ := newTestCluster(t, 3)
	h := rt.Handler()
	ids := map[string]string{} // session → shard
	for i := 0; i < 8; i++ {
		var info server.SessionInfo
		rec := call(t, h, "POST", "/api/v1/sessions",
			server.CreateRequest{Dataset: "synthetic", Seed: int64(i + 1), Depth: 2, BeamWidth: 8})
		decode(t, rec, http.StatusCreated, &info)
		got := rec.Header().Get("X-Sisd-Shard")
		if want := owner(rt.ring, info.ID); got != want {
			t.Fatalf("session %s created on %s, ring owner %s", info.ID, got, want)
		}
		if info.Shard != got {
			t.Fatalf("shard label %q != placement header %q", info.Shard, got)
		}
		ids[info.ID] = got
	}
	// Session-scoped calls land on the same shard.
	for id, shard := range ids {
		rec := call(t, h, "GET", "/api/v1/sessions/"+id+"/history", nil)
		decode(t, rec, http.StatusOK, nil)
		if got := rec.Header().Get("X-Sisd-Shard"); got != shard {
			t.Fatalf("history for %s went to %s, created on %s", id, got, shard)
		}
	}
	// Merged listing: every session appears exactly once, live, labeled.
	var listed []server.SessionInfo
	decode(t, call(t, h, "GET", "/api/v1/sessions", nil), http.StatusOK, &listed)
	seen := map[string]bool{}
	for _, inf := range listed {
		if seen[inf.ID] {
			t.Fatalf("session %s listed twice", inf.ID)
		}
		seen[inf.ID] = true
		if want, ours := ids[inf.ID]; ours {
			if inf.Persisted || inf.Shard != want {
				t.Fatalf("listing for %s: persisted=%v shard=%q, want live on %q",
					inf.ID, inf.Persisted, inf.Shard, want)
			}
		}
	}
	for id := range ids {
		if !seen[id] {
			t.Fatalf("session %s missing from merged listing", id)
		}
	}
	// Unknown session routes somewhere and passes the shard's 404 through
	// with the v1 envelope intact.
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	decode(t, call(t, h, "GET", "/api/v1/sessions/nope/history", nil), http.StatusNotFound, &env)
	if env.Error.Code != "not_found" {
		t.Fatalf("passthrough 404 code %q", env.Error.Code)
	}
}

// TestRouterFailoverAndRejoin is the migration property test at the
// router level: partition a shard and its sessions fail over (restored
// from the store, mining byte-identical results at the same model
// version); heal the partition and ownership returns home — including
// evicting the stale replica the partitioned shard kept in memory, so
// the homecoming session resumes from the freshest state, not a stale
// one.
func TestRouterFailoverAndRejoin(t *testing.T) {
	rt, shards := newTestCluster(t, 3)
	h := rt.Handler()

	// Create sessions until at least two land on shard-1 (the one we
	// will partition), committing one pattern each so the store holds
	// real progress.
	type sessRec struct {
		id    string
		home  string
		mine  string
		histo string
	}
	var victims, others []*sessRec
	for i := 0; i < 24 && len(victims) < 2; i++ {
		var info server.SessionInfo
		rec := call(t, h, "POST", "/api/v1/sessions",
			server.CreateRequest{Dataset: "synthetic", Seed: int64(100 + i), Depth: 2, BeamWidth: 8})
		decode(t, rec, http.StatusCreated, &info)
		s := &sessRec{id: info.ID, home: rec.Header().Get("X-Sisd-Shard")}
		decode(t, call(t, h, "POST", "/api/v1/sessions/"+s.id+"/mine", nil), http.StatusOK, nil)
		decode(t, call(t, h, "POST", "/api/v1/sessions/"+s.id+"/commit", nil), http.StatusOK, nil)
		var mine server.MineResponse
		decode(t, call(t, h, "POST", "/api/v1/sessions/"+s.id+"/mine", nil), http.StatusOK, &mine)
		s.mine = canonMine(t, &mine)
		s.histo = call(t, h, "GET", "/api/v1/sessions/"+s.id+"/history", nil).Body.String()
		if s.home == "shard-1" {
			victims = append(victims, s)
		} else {
			others = append(others, s)
		}
	}
	if len(victims) < 2 {
		t.Fatal("placement never hit shard-1; ring balance is broken")
	}

	// Partition shard-1. The next sweep fails it over.
	shards[1].block.Store(true)
	rt.ProbeOnce(t.Context())
	if got := rt.state("shard-1"); got != StateDown {
		t.Fatalf("blocked shard state %v, want down", got)
	}
	for _, s := range victims {
		var mine server.MineResponse
		rec := call(t, h, "POST", "/api/v1/sessions/"+s.id+"/mine", nil)
		decode(t, rec, http.StatusOK, &mine)
		fallback := rec.Header().Get("X-Sisd-Shard")
		if fallback == "shard-1" || fallback == "" {
			t.Fatalf("failover routed %s to %q", s.id, fallback)
		}
		if got := canonMine(t, &mine); got != s.mine {
			t.Fatalf("failover mine for %s diverged:\n was %s\n now %s", s.id, s.mine, got)
		}
		// Advance the session on the fallback shard so the partitioned
		// replica on shard-1 is now strictly stale.
		decode(t, call(t, h, "POST", "/api/v1/sessions/"+s.id+"/commit", nil), http.StatusOK, nil)
	}
	// Sessions homed elsewhere are untouched by the failover.
	for _, s := range others {
		rec := call(t, h, "GET", "/api/v1/sessions/"+s.id+"/history", nil)
		decode(t, rec, http.StatusOK, nil)
		if got := rec.Header().Get("X-Sisd-Shard"); got != s.home {
			t.Fatalf("unrelated session %s moved %s -> %s during failover", s.id, s.home, got)
		}
	}

	// Heal the partition. Rejoin must (a) route the victims home and
	// (b) discard shard-1's stale replicas — their history must include
	// the commit made on the fallback shard.
	shards[1].block.Store(false)
	rt.ProbeOnce(t.Context())
	if got := rt.state("shard-1"); got != StateReady {
		t.Fatalf("healed shard state %v, want ready", got)
	}
	for _, s := range victims {
		var hist []server.PatternJSON
		rec := call(t, h, "GET", "/api/v1/sessions/"+s.id+"/history", nil)
		decode(t, rec, http.StatusOK, &hist)
		if got := rec.Header().Get("X-Sisd-Shard"); got != "shard-1" {
			t.Fatalf("after rejoin %s served by %s, want shard-1", s.id, got)
		}
		if len(hist) != 2 {
			t.Fatalf("after rejoin %s has %d committed patterns, want 2 (stale replica served?)",
				s.id, len(hist))
		}
	}
}

// TestRouterNoEligibleShards: with every shard partitioned the router
// sheds with its own 503 in the error envelope, and readyz goes
// not-ready.
func TestRouterNoEligibleShards(t *testing.T) {
	rt, shards := newTestCluster(t, 2)
	h := rt.Handler()
	for _, sh := range shards {
		sh.block.Store(true)
	}
	rt.ProbeOnce(t.Context())

	var env struct {
		Error struct {
			Code         string `json:"code"`
			RetryAfterMs int64  `json:"retryAfterMs"`
		} `json:"error"`
	}
	decode(t, call(t, h, "POST", "/api/v1/sessions", server.CreateRequest{Dataset: "synthetic"}),
		http.StatusServiceUnavailable, &env)
	if env.Error.Code != "no_shard" || env.Error.RetryAfterMs <= 0 {
		t.Fatalf("v1 shed envelope: %+v", env.Error)
	}
	var ready struct {
		Ready bool `json:"ready"`
	}
	decode(t, call(t, h, "GET", "/api/v1/readyz", nil), http.StatusServiceUnavailable, &ready)
	if ready.Ready {
		t.Fatal("router readyz claims ready with zero eligible shards")
	}
}

// TestUnversionedAPIIs404: /api/v1 is the only mount. Requests to
// /api/... outside it find no route on a shard or on the router.
func TestUnversionedAPIIs404(t *testing.T) {
	rt, shards := newTestCluster(t, 1)
	for name, h := range map[string]http.Handler{"server": shards[0].srv.Handler(), "router": rt.Handler()} {
		for _, req := range []struct{ method, path string }{
			{"GET", "/api/sessions"},
			{"POST", "/api/sessions"},
			{"GET", "/api/sessions/x/history"},
			{"GET", "/api/jobs"},
			{"GET", "/api/readyz"},
		} {
			if rec := call(t, h, req.method, req.path, nil); rec.Code != http.StatusNotFound {
				t.Errorf("%s: %s %s = %d, want 404", name, req.method, req.path, rec.Code)
			}
		}
	}
}

// TestRouterShardIDMismatch: a shard answering with the wrong shardId
// (a miswired address) is treated as down, not trusted with traffic.
func TestRouterShardIDMismatch(t *testing.T) {
	store := server.NewMemStore()
	srv := server.NewWithOptions(server.Options{Store: store, ShardID: "actually-b"})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	rt, err := NewRouter(Options{Shards: []Shard{{ID: "a", URL: ts.URL}}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeOnce(t.Context())
	if got := rt.state("a"); got != StateDown {
		t.Fatalf("mismatched shard state %v, want down", got)
	}
}

// TestRouterDrainFanout: a cluster drain reaches every shard and the
// aggregated report carries one entry per shard.
func TestRouterDrainFanout(t *testing.T) {
	rt, shards := newTestCluster(t, 3)
	h := rt.Handler()
	decode(t, call(t, h, "POST", "/api/v1/sessions",
		server.CreateRequest{Dataset: "synthetic", Seed: 9}), http.StatusCreated, nil)
	var rep struct {
		Shards map[string]server.DrainReport `json:"shards"`
	}
	decode(t, call(t, h, "POST", "/api/v1/drain?timeoutMs=5000", nil), http.StatusOK, &rep)
	if len(rep.Shards) != len(shards) {
		t.Fatalf("drain reached %d shards, want %d", len(rep.Shards), len(shards))
	}
	for id, r := range rep.Shards {
		if !r.Draining {
			t.Fatalf("shard %s did not report draining", id)
		}
	}
	// Drained shards are no longer ownership-eligible.
	rt.ProbeOnce(t.Context())
	for _, sh := range shards {
		if got := rt.state(sh.id); got != StateDraining {
			t.Fatalf("post-drain state of %s: %v, want draining", sh.id, got)
		}
	}
}

// envelope is the v1 error body the router and the shards both write.
type envelope struct {
	Error struct {
		Code         string `json:"code"`
		RetryAfterMs int64  `json:"retryAfterMs"`
	} `json:"error"`
}

// idOn returns a session id with the given prefix that the full ring
// places on shard.
func idOn(t *testing.T, rt *Router, prefix, shard string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if id := fmt.Sprintf("%s-%d", prefix, i); owner(rt.ring, id) == shard {
			return id
		}
	}
	t.Fatalf("no %s-* id lands on %s", prefix, shard)
	return ""
}

// createOn creates a synthetic session pinned to an id the ring places
// on shard and returns the id.
func createOn(t *testing.T, rt *Router, h http.Handler, prefix, shard string) string {
	t.Helper()
	id := idOn(t, rt, prefix, shard)
	rec := call(t, h, "POST", "/api/v1/sessions",
		server.CreateRequest{ID: id, Dataset: "synthetic", Seed: 3, Depth: 2, BeamWidth: 8})
	decode(t, rec, http.StatusCreated, nil)
	if got := rec.Header().Get("X-Sisd-Shard"); got != shard {
		t.Fatalf("session %s created on %s, want %s", id, got, shard)
	}
	return id
}

// TestRouterJobListMergesInShardOrder: the merged job listing is every
// serving shard's listing concatenated in shard-id order, not in the
// order the jobs ran.
func TestRouterJobListMergesInShardOrder(t *testing.T) {
	rt, _ := newTestCluster(t, 3)
	h := rt.Handler()
	late := createOn(t, rt, h, "late", "shard-2")
	early := createOn(t, rt, h, "early", "shard-0")
	// shard-2's jobs run first; shard-1 runs none.
	for _, id := range []string{late, late, early} {
		decode(t, call(t, h, "POST", "/api/v1/sessions/"+id+"/mine", nil), http.StatusOK, nil)
	}
	var jobs []struct {
		ID    string `json:"id"`
		Label string `json:"label"`
	}
	decode(t, call(t, h, "GET", "/api/v1/jobs", nil), http.StatusOK, &jobs)
	var labels []string
	for _, j := range jobs {
		labels = append(labels, j.Label)
	}
	want := []string{"mine " + early, "mine " + late, "mine " + late}
	if fmt.Sprint(labels) != fmt.Sprint(want) {
		t.Fatalf("merged job labels %v, want %v", labels, want)
	}
}

// TestRouterJobOnSecondShard: a job id only the second shard knows is
// found by GET and DELETE, and an id no shard knows answers 404.
func TestRouterJobOnSecondShard(t *testing.T) {
	rt, _ := newTestCluster(t, 2)
	h := rt.Handler()
	id := createOn(t, rt, h, "job", "shard-1")
	var mine server.MineResponse
	decode(t, call(t, h, "POST", "/api/v1/sessions/"+id+"/mine", nil), http.StatusOK, &mine)
	if mine.Job == "" {
		t.Fatal("mine response names no job")
	}
	for _, method := range []string{"GET", "DELETE"} {
		var job struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		}
		rec := call(t, h, method, "/api/v1/jobs/"+mine.Job, nil)
		decode(t, rec, http.StatusOK, &job)
		if job.ID != mine.Job || job.Status != "done" {
			t.Fatalf("%s job %s: got %+v", method, mine.Job, job)
		}
		if got := rec.Header().Get("X-Sisd-Shard"); got != "shard-1" {
			t.Fatalf("%s job %s served by %q, want shard-1", method, mine.Job, got)
		}
	}
	var env envelope
	decode(t, call(t, h, "GET", "/api/v1/jobs/j999999", nil), http.StatusNotFound, &env)
	if env.Error.Code != "not_found" {
		t.Fatalf("unknown job code %q, want not_found", env.Error.Code)
	}
}

// TestRouterShardDiesBetweenSweeps: a shard that stops answering before
// the next probe sweep turns its sessions' calls into a retryable 502.
func TestRouterShardDiesBetweenSweeps(t *testing.T) {
	rt, shards := newTestCluster(t, 2)
	h := rt.Handler()
	id := createOn(t, rt, h, "dead", "shard-1")
	shards[1].ts.Close()
	var env envelope
	decode(t, call(t, h, "GET", "/api/v1/sessions/"+id+"/history", nil), http.StatusBadGateway, &env)
	if env.Error.Code != "shard_unreachable" || env.Error.RetryAfterMs <= 0 {
		t.Fatalf("dead shard envelope: %+v", env.Error)
	}
}

// TestRouterPinnedCreateCollision: creating a pinned id twice passes the
// owning shard's 409 session_exists through, stamped with its shard.
func TestRouterPinnedCreateCollision(t *testing.T) {
	rt, _ := newTestCluster(t, 3)
	h := rt.Handler()
	id := createOn(t, rt, h, "dup", "shard-1")
	var env envelope
	rec := call(t, h, "POST", "/api/v1/sessions", server.CreateRequest{ID: id, Dataset: "synthetic"})
	decode(t, rec, http.StatusConflict, &env)
	if env.Error.Code != "session_exists" {
		t.Fatalf("collision code %q, want session_exists", env.Error.Code)
	}
	if got := rec.Header().Get("X-Sisd-Shard"); got != "shard-1" {
		t.Fatalf("collision answered by %q, want shard-1", got)
	}
}

// TestRouterListPrefersLiveEntry: a committed session is live on its
// owner and persisted-only on every other shard (they share the store);
// the merged listing keeps the live entry, even though a shard earlier
// in id order listed the persisted one.
func TestRouterListPrefersLiveEntry(t *testing.T) {
	rt, shards := newTestCluster(t, 3)
	h := rt.Handler()
	id := createOn(t, rt, h, "live", "shard-2")
	decode(t, call(t, h, "POST", "/api/v1/sessions/"+id+"/mine", nil), http.StatusOK, nil)
	decode(t, call(t, h, "POST", "/api/v1/sessions/"+id+"/commit", nil), http.StatusOK, nil)
	var direct []server.SessionInfo
	decode(t, call(t, shards[0].srv.Handler(), "GET", "/api/v1/sessions", nil), http.StatusOK, &direct)
	if len(direct) != 1 || direct[0].ID != id || !direct[0].Persisted {
		t.Fatalf("shard-0 listing %+v, want %s persisted-only", direct, id)
	}
	var merged []server.SessionInfo
	decode(t, call(t, h, "GET", "/api/v1/sessions", nil), http.StatusOK, &merged)
	if len(merged) != 1 || merged[0].ID != id || merged[0].Persisted || merged[0].Shard != "shard-2" {
		t.Fatalf("merged listing %+v, want %s live on shard-2", merged, id)
	}
}

// BenchmarkRouterProxy measures the router hop alone: one small JSON
// mine request through Router.Handler to a stub shard that answers a
// fixed ~1 KB body, so the cost is the router's request build, upstream
// round trip over a pooled connection and relay.
func BenchmarkRouterProxy(b *testing.B) {
	answer := bytes.Repeat([]byte("x"), 1000)
	answer = append(append([]byte(`{"pad":"`), answer...), `"}`...)
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == server.APIPrefix+"/readyz" {
			_, _ = w.Write([]byte(`{"ready":true}`))
			return
		}
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write(answer)
	}))
	defer shard.Close()
	rt, err := NewRouter(Options{Shards: []Shard{{ID: "s", URL: shard.URL}}})
	if err != nil {
		b.Fatal(err)
	}
	rt.ProbeOnce(context.Background())
	h := rt.Handler()
	body := []byte(`{"spread":false,"timeoutMs":1000}`)
	mine := func() {
		req := httptest.NewRequest("POST", server.APIPrefix+"/sessions/r0123456789abcdef/mine", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Body.Len() != len(answer) {
			b.Fatalf("proxied mine: status %d, %d bytes", rec.Code, rec.Body.Len())
		}
	}
	mine() // warm the pooled connection
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mine()
	}
}

// TestRouterUnbuildableTarget: a session path whose id decodes to
// something no shard URL can carry raw (a bad %-escape, an escaped
// slash) is forwarded escaped, so the owning shard answers it: a 404
// not_found envelope, as for any unknown id.
func TestRouterUnbuildableTarget(t *testing.T) {
	rt, _ := newTestCluster(t, 2)
	for _, path := range []string{
		"/api/v1/sessions/a%25zz/history",
		"/api/v1/sessions/a%2Fb/history",
	} {
		var env envelope
		decode(t, call(t, rt.Handler(), "GET", path, nil), http.StatusNotFound, &env)
		if env.Error.Code != "not_found" {
			t.Fatalf("%s: code %q, want not_found", path, env.Error.Code)
		}
	}
}
