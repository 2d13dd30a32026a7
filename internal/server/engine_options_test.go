package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// TestSessionEngineOptions checks that the evaluation-engine options of
// a create request — parallelism, min support, splits, per-mine time
// budget — reach the session's searches. Top-k is accepted and ignored
// (TestMineIgnoresTopK).
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
	// fail the request. The search must be one that cannot finish inside
	// the budget even warm: a crime beam of width 40 and depth 4 over
	// the replica's ~1000 conditions takes about 100 ms once a first
	// unbudgeted mine has built the condition language, so the budgeted
	// re-mine always sees the expired deadline before its last level.
	var tiny SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset:   "crime",
		Depth:     4,
		BeamWidth: 40,
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

// TestMineIgnoresTopK checks that a create request's topK does not
// change what a session mines: the server's searches keep a one-entry
// result log, and the best pattern is the same for every log size.
// Sessions created with topK 0, 1, 150 and 10000 must give
// byte-identical mine responses over three mine→commit iterations
// (apart from the job id and the scheduling-dependent pruning counts)
// and export byte-identical models.
func TestMineIgnoresTopK(t *testing.T) {
	ts := newTestServer(t)
	var wantMines [][]byte
	var wantModel json.RawMessage
	for _, topK := range []int{0, 1, 150, 10000} {
		var info SessionInfo
		doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
			Dataset: "crime", Depth: 2, TopK: topK, Parallelism: 2,
		}, http.StatusCreated, &info)
		base := ts.URL + "/api/v1/sessions/" + info.ID
		var mines [][]byte
		for it := 0; it < 3; it++ {
			var mined MineResponse
			doJSON(t, "POST", base+"/mine", MineRequest{Spread: true}, http.StatusOK, &mined)
			if mined.Location == nil || mined.Spread == nil {
				t.Fatalf("topK %d iteration %d: no pattern mined", topK, it)
			}
			mines = append(mines, canonicalMineJSON(t, &mined))
			doJSON(t, "POST", base+"/commit", nil, http.StatusOK, nil)
		}
		var model json.RawMessage
		doJSON(t, "GET", base+"/model", nil, http.StatusOK, &model)
		if wantMines == nil {
			wantMines, wantModel = mines, model
			continue
		}
		for it := range mines {
			if !bytes.Equal(mines[it], wantMines[it]) {
				t.Fatalf("topK %d iteration %d: mine response differs from topK 0:\n%s\n%s",
					topK, it, mines[it], wantMines[it])
			}
		}
		if !bytes.Equal(model, wantModel) {
			t.Fatalf("topK %d: exported model differs from topK 0", topK)
		}
	}
}
