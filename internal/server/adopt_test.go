package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// waterSession starts a server with one water depth-1 session and
// returns the session's URL and its server-side state.
func waterSession(t *testing.T) (string, *Server, *session) {
	t.Helper()
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	var info SessionInfo
	doJSON(t, "POST", ts.URL+APIPrefix+"/sessions", CreateRequest{Dataset: "water", Depth: 1},
		http.StatusCreated, &info)
	srv.mu.Lock()
	sess := srv.sessions[info.ID]
	srv.mu.Unlock()
	return ts.URL + APIPrefix + "/sessions/" + info.ID, srv, sess
}

// pendingNow reads the session's pending slot.
func pendingNow(sess *session) pending {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.pending
}

// commitVersion commits and returns the answer's modelVersion.
func commitVersion(t *testing.T, base string) uint64 {
	t.Helper()
	var out struct {
		ModelVersion uint64 `json:"modelVersion"`
	}
	doJSON(t, "POST", base+"/commit", nil, http.StatusOK, &out)
	return out.ModelVersion
}

// A mine that times out before scoring anything clears the pending
// slot, the spread preview's fork included.
func TestTimedOutMineDropsPreview(t *testing.T) {
	base, srv, sess := waterSession(t)
	doJSON(t, "POST", base+"/mine", MineRequest{Spread: true}, http.StatusOK, nil)
	if pendingNow(sess).preview == nil {
		t.Fatal("a spread mine kept no preview fork")
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	out, err := srv.mineJob(sess, MineRequest{Spread: true})(ctx, func(string) {})
	if err != nil {
		t.Fatal(err)
	}
	if st := out.(*MineResponse).Status; st != MineStatusTimeout {
		t.Fatalf("status %q, want %q", st, MineStatusTimeout)
	}
	if p := pendingNow(sess); p != (pending{}) {
		t.Fatalf("the timed-out mine left %+v pending", p)
	}
	doJSON(t, "POST", base+"/commit", nil, http.StatusConflict, nil)
}

// A second mine replaces the first's fork, and the commit adopts the
// second. A fork whose base is no longer published is not adopted: the
// commit refits the location instead.
func TestCommitAdoptsLatestPreview(t *testing.T) {
	base, _, sess := waterSession(t)
	doJSON(t, "POST", base+"/mine", MineRequest{Spread: true}, http.StatusOK, nil)
	first := pendingNow(sess)
	doJSON(t, "POST", base+"/mine", MineRequest{Spread: true}, http.StatusOK, nil)
	second := pendingNow(sess)
	if first.preview == nil || second.preview == nil || first.preview == second.preview {
		t.Fatal("the second mine did not replace the first's preview fork")
	}
	if v := commitVersion(t, base); v != 3 {
		t.Fatalf("modelVersion %d after one location+spread commit, want 3", v)
	}
	if second.preview.Snapshot() != nil {
		t.Fatal("the commit did not adopt the latest preview fork")
	}
	if first.preview.Snapshot() == nil {
		t.Fatal("the commit adopted a replaced preview fork")
	}
	if p := pendingNow(sess); p != (pending{}) {
		t.Fatalf("the commit left %+v pending", p)
	}

	// An interleaved commit: the first mine's pattern comes back with
	// its fork of version 1, two commits behind.
	sess.mu.Lock()
	sess.pending = first
	sess.mu.Unlock()
	if v := commitVersion(t, base); v != 5 {
		t.Fatalf("modelVersion %d after the fallback commit, want 5", v)
	}
	if first.preview.Snapshot() == nil {
		t.Fatal("the commit adopted a stale preview fork")
	}
	var hist []PatternJSON
	doJSON(t, "GET", base+"/history", nil, http.StatusOK, &hist)
	if len(hist) != 4 {
		t.Fatalf("history has %d entries, want 4", len(hist))
	}
}

// A commit whose spread leg fails commits nothing: modelVersion, the
// history, the model, the iteration count and the stored snapshot stay
// as they were, and both legs stay pending with their preview fork. The
// retry then commits both legs at once.
func TestFailedSpreadLegCommitsNothing(t *testing.T) {
	base, srv, sess := waterSession(t)
	doJSON(t, "POST", base+"/mine", MineRequest{Spread: true}, http.StatusOK, nil)
	good := pendingNow(sess)
	bad := *good.spread
	bad.Variance = -1 // CommitSpread rejects it before any refit
	sess.mu.Lock()
	sess.pending.spread = &bad
	sess.mu.Unlock()
	failed := pendingNow(sess)

	type state struct {
		version    uint64
		history    string
		model      string
		iterations int
		stored     string
	}
	now := func() state {
		stored, err := srv.store.Get(sess.id)
		if err != nil {
			t.Fatal(err)
		}
		inf, _ := srv.info(sess.id)
		return state{
			version:    sess.miner.Snapshot().Version(),
			history:    string(getBody(t, base+"/history")),
			model:      string(getBody(t, base+"/model")),
			iterations: inf.Iterations,
			stored:     string(mustMarshal(t, stored)),
		}
	}
	before := now()
	var env envelope
	doJSON(t, "POST", base+"/commit", nil, http.StatusUnprocessableEntity, &env)
	if env.Error.Code != errModelInfeasible {
		t.Fatalf("failed spread leg answered code %q, want %q", env.Error.Code, errModelInfeasible)
	}
	if after := now(); after != before {
		t.Fatalf("a failed spread leg changed the session:\nbefore %+v\nafter  %+v", before, after)
	}
	if p := pendingNow(sess); p != failed {
		t.Fatalf("after a failed spread leg %+v is pending, want both legs %+v", p, failed)
	}
	if good.preview.Snapshot() == nil {
		t.Fatal("a failed spread leg killed the preview fork")
	}

	sess.mu.Lock()
	sess.pending.spread = good.spread
	sess.mu.Unlock()
	if v := commitVersion(t, base); v != before.version+2 {
		t.Fatalf("modelVersion %d after the retry, want %d", v, before.version+2)
	}
	if good.preview.Snapshot() != nil {
		t.Fatal("the retry did not adopt the preview fork")
	}
	var hist []PatternJSON
	doJSON(t, "GET", base+"/history", nil, http.StatusOK, &hist)
	if len(hist) != 2 || hist[0].Kind != "location" || hist[1].Kind != "spread" {
		t.Fatalf("history %+v", hist)
	}
}

// A two-leg commit publishes once. Readers pinning the published
// version while spread commits land see 1, 3, 5, …: the version before
// and the version after each commit, never the one between its
// location and its spread.
func TestSpreadCommitPublishesOnce(t *testing.T) {
	base, _, sess := waterSession(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	halt := func() { once.Do(func() { close(stop); wg.Wait() }) }
	defer halt()
	seen := []map[uint64]bool{{}, {}}
	for _, versions := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := sess.miner.Snapshot()
				versions[v.Version()] = true
				if _, _, err := sess.miner.MineAt(v, core.MineOptions{}); err != nil {
					t.Errorf("mine at version %d: %v", v.Version(), err)
					return
				}
			}
		}()
	}
	for i := uint64(0); i < 3; i++ {
		doJSON(t, "POST", base+"/mine", MineRequest{Spread: true}, http.StatusOK, nil)
		if v := commitVersion(t, base); v != 3+2*i {
			t.Fatalf("commit %d answered modelVersion %d, want %d", i+1, v, 3+2*i)
		}
	}
	halt()
	for _, versions := range seen {
		for v := range versions {
			if v%2 == 0 {
				t.Errorf("a reader saw version %d, between a location and its spread", v)
			}
		}
	}
}
