package server

import (
	"net/http"
	"testing"
)

// TestSessionEngineOptions checks that the evaluation-engine options of
// a create request — parallelism, top-k, min support, splits, per-mine
// time budget — reach the session's searches.
func TestSessionEngineOptions(t *testing.T) {
	ts := newTestServer(t)

	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset:     "synthetic",
		Parallelism: 2,
		TopK:        5,
		MinSupport:  10,
		NumSplits:   2,
	}, http.StatusCreated, &info)

	var mined MineResponse
	doJSON(t, "POST", ts.URL+"/api/v1/sessions/"+info.ID+"/mine", nil,
		http.StatusOK, &mined)
	if mined.Location == nil {
		t.Fatal("no pattern mined")
	}
	if mined.Location.Size < 10 {
		t.Fatalf("MinSupport ignored: size %d", mined.Location.Size)
	}
	if mined.TimedOut {
		t.Fatal("no time budget was set")
	}

	// Absurd engine options must be clamped at create, not ripple into
	// allocations: a two-billion-worker request still yields a working
	// session.
	var huge SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset:     "synthetic",
		Parallelism: 2_000_000_000,
		NumSplits:   100_000_000,
	}, http.StatusCreated, &huge)
	var hugeMine MineResponse
	doJSON(t, "POST", ts.URL+"/api/v1/sessions/"+huge.ID+"/mine", nil,
		http.StatusOK, &hugeMine)
	if hugeMine.Location == nil {
		t.Fatal("clamped session failed to mine")
	}

	// A tiny mine budget must cut the search short and be reported, not
	// fail the request. The crime replica's ~1000 conditions make every
	// beam level cost well over 1ms, so after a first unbudgeted mine
	// has warmed the session (condition language, scorer), a budgeted
	// re-mine reliably completes level 1 and then sees the expired
	// deadline before a deeper level.
	var tiny SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset:   "crime",
		Depth:     2,
		BeamWidth: 10,
	}, http.StatusCreated, &tiny)
	var warm, rushed MineResponse
	doJSON(t, "POST", ts.URL+"/api/v1/sessions/"+tiny.ID+"/mine", nil,
		http.StatusOK, &warm)
	if warm.TimedOut {
		t.Fatal("unbudgeted mine reported timedOut")
	}
	doJSON(t, "POST", ts.URL+"/api/v1/sessions/"+tiny.ID+"/mine",
		MineRequest{TimeoutMS: 1}, http.StatusOK, &rushed)
	if !rushed.TimedOut {
		t.Fatal("1ms budget did not report timedOut")
	}
	// On a warm session level 1 normally completes inside the budget and
	// the best-so-far pattern rides along; on a heavily loaded machine
	// even that can expire, in which case location is legitimately null.
	if rushed.Location == nil {
		t.Log("budget expired before level 1; timedOut reported with null location")
	}
}
