package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
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

// A commit whose spread leg fails has committed (here: adopted) the
// location, and leaves no fork behind; the retry commits only the
// spread.
func TestFailedSpreadLegDropsPreview(t *testing.T) {
	base, _, sess := waterSession(t)
	doJSON(t, "POST", base+"/mine", MineRequest{Spread: true}, http.StatusOK, nil)
	good := pendingNow(sess)
	bad := *good.spread
	bad.Variance = -1 // CommitSpread rejects it before any refit
	sess.mu.Lock()
	sess.pending.spread = &bad
	sess.mu.Unlock()
	doJSON(t, "POST", base+"/commit", nil, http.StatusInternalServerError, nil)
	if good.preview.Snapshot() != nil {
		t.Fatal("the location leg did not adopt the preview fork")
	}
	if p := pendingNow(sess); p != (pending{spread: &bad}) {
		t.Fatalf("after a failed spread leg %+v is pending, want only the spread", p)
	}

	sess.mu.Lock()
	sess.pending.spread = good.spread
	sess.mu.Unlock()
	if v := commitVersion(t, base); v != 3 {
		t.Fatalf("modelVersion %d after the retry, want 3", v)
	}
	var hist []PatternJSON
	doJSON(t, "GET", base+"/history", nil, http.StatusOK, &hist)
	if len(hist) != 2 || hist[0].Kind != "location" || hist[1].Kind != "spread" {
		t.Fatalf("history %+v", hist)
	}
}
