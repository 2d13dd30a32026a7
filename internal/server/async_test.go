package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/jobs"
)

// jobView decodes a jobs.Info whose Result is a MineResponse.
type jobView struct {
	ID     string       `json:"id"`
	Status jobs.Status  `json:"status"`
	Error  string       `json:"error"`
	Result MineResponse `json:"result"`
}

func newTestServerWith(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	srv := NewWithOptions(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// pollJob long-polls until the job is terminal or the deadline passes.
func pollJob(t *testing.T, baseURL, id string, deadline time.Duration) jobView {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		var jv jobView
		doJSON(t, "GET", baseURL+"/api/v1/jobs/"+id+"?waitMs=500", nil, http.StatusOK, &jv)
		if jv.Status.Terminal() {
			return jv
		}
	}
	t.Fatalf("job %s not terminal after %v", id, deadline)
	return jobView{}
}

// TestAsyncMineJobFlow drives the job-oriented API end to end: submit a
// mine with async, poll the job, commit the result.
func TestAsyncMineJobFlow(t *testing.T) {
	ts := newTestServer(t)
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 620, Depth: 2,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID

	var accepted jobView
	doJSON(t, "POST", base+"/mine", MineRequest{Async: true}, http.StatusAccepted, &accepted)
	if accepted.ID == "" || accepted.Status.Terminal() && accepted.Status != jobs.StatusDone {
		t.Fatalf("accepted = %+v", accepted)
	}
	done := pollJob(t, ts.URL, accepted.ID, 10*time.Second)
	if done.Status != jobs.StatusDone {
		t.Fatalf("job finished %s: %s", done.Status, done.Error)
	}
	if done.Result.Location == nil || done.Result.Status != MineStatusComplete {
		t.Fatalf("job result = %+v", done.Result)
	}

	// The async-mined pattern is pending on the session: commit works.
	doJSON(t, "POST", base+"/commit", nil, http.StatusOK, nil)
	var hist []PatternJSON
	doJSON(t, "GET", base+"/history", nil, http.StatusOK, &hist)
	if len(hist) != 1 {
		t.Fatalf("history = %+v", hist)
	}

	// The job list knows the job; unknown job ids 404.
	var list []jobView
	doJSON(t, "GET", ts.URL+"/api/v1/jobs", nil, http.StatusOK, &list)
	if len(list) == 0 {
		t.Fatal("job list empty")
	}
	doJSON(t, "GET", ts.URL+"/api/v1/jobs/zzz", nil, http.StatusNotFound, nil)
}

// TestMineConflictsWhileMining pins the locking contract: while a mine
// job is in flight the session lock is NOT held across the search, so
// history, the session list, an explicit snapshot and a second mine on
// the SAME session all proceed — every mine runs against the model
// version published at its start.
func TestMineConflictsWhileMining(t *testing.T) {
	ts := newTestServerWith(t, Options{Workers: 2})
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "mammals", Depth: 8, BeamWidth: 1024,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID

	var accepted jobView
	doJSON(t, "POST", base+"/mine", MineRequest{Async: true, TimeoutMS: 2500},
		http.StatusAccepted, &accepted)

	var hist []PatternJSON
	doJSON(t, "GET", base+"/history", nil, http.StatusOK, &hist)
	var sessions []SessionInfo
	doJSON(t, "GET", ts.URL+"/api/v1/sessions", nil, http.StatusOK, &sessions)
	doJSON(t, "POST", base+"/snapshot", nil, http.StatusOK, nil)
	// A second mine answers while the first is still searching.
	var second MineResponse
	doJSON(t, "POST", base+"/mine", MineRequest{TimeoutMS: 300}, http.StatusOK, &second)
	if second.Status == "" {
		t.Fatalf("second mine = %+v", second)
	}

	fin := pollJob(t, ts.URL, accepted.ID, 30*time.Second)
	if fin.Status != jobs.StatusDone {
		t.Fatalf("mine job: %s %s", fin.Status, fin.Error)
	}
	// The 2.5s budget cannot finish depth-8/beam-1024 on mammals: the
	// deadline must surface as a distinct partial/timeout status, not
	// masquerade as a complete run (and not as an error).
	if fin.Result.Status != MineStatusPartial && fin.Result.Status != MineStatusTimeout {
		t.Fatalf("status = %q, want partial or timeout", fin.Result.Status)
	}
	if fin.Result.Status == MineStatusPartial && fin.Result.Location == nil {
		t.Fatal("partial status with no location")
	}

	// The first mine finished last, so its pattern is the pending one.
	if fin.Result.Location != nil {
		doJSON(t, "POST", base+"/commit", nil, http.StatusOK, nil)
	}
}

// TestCancelQueuedMineReleasesSession: with a single worker, a second
// session's mine queues behind the first; cancelling the queued job
// must release that session's mine slot.
func TestCancelQueuedMineReleasesSession(t *testing.T) {
	ts := newTestServerWith(t, Options{Workers: 1})
	mkSession := func(ds string, depth int) string {
		var info SessionInfo
		doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
			Dataset: ds, Depth: depth,
		}, http.StatusCreated, &info)
		return ts.URL + "/api/v1/sessions/" + info.ID
	}
	baseA := mkSession("mammals", 8)
	baseB := mkSession("synthetic", 2)

	var runA jobView
	doJSON(t, "POST", baseA+"/mine", MineRequest{Async: true, TimeoutMS: 1500},
		http.StatusAccepted, &runA)
	var queuedB jobView
	doJSON(t, "POST", baseB+"/mine", MineRequest{Async: true}, http.StatusAccepted, &queuedB)

	var cancelled jobView
	doJSON(t, "DELETE", ts.URL+"/api/v1/jobs/"+queuedB.ID, nil, http.StatusOK, &cancelled)
	fin := pollJob(t, ts.URL, queuedB.ID, 10*time.Second)
	if fin.Status != jobs.StatusCancelled {
		t.Fatalf("queued job after cancel: %s", fin.Status)
	}

	// Session B's mine slot was released by the cancellation: a fresh
	// sync mine succeeds once the worker frees up.
	var mined MineResponse
	doJSON(t, "POST", baseB+"/mine", nil, http.StatusOK, &mined)
	if mined.Location == nil {
		t.Fatalf("mine after cancel = %+v", mined)
	}
	pollJob(t, ts.URL, runA.ID, 30*time.Second)
}

// TestCancelRunningMineDiscardsResult: cancelling an in-flight mine
// takes effect when the current search phase ends (no later than the
// mine budget): the job reports cancelled, nothing is published to the
// session, and the mine slot is released.
func TestCancelRunningMineDiscardsResult(t *testing.T) {
	ts := newTestServerWith(t, Options{Workers: 2})
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "mammals", Depth: 8, BeamWidth: 1024,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID

	var accepted jobView
	doJSON(t, "POST", base+"/mine", MineRequest{Async: true, TimeoutMS: 2000},
		http.StatusAccepted, &accepted)
	for deadline := time.Now().Add(5 * time.Second); ; {
		var jv jobView
		doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+accepted.ID, nil, http.StatusOK, &jv)
		if jv.Status == jobs.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck %s", jv.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	doJSON(t, "DELETE", ts.URL+"/api/v1/jobs/"+accepted.ID, nil, http.StatusOK, nil)
	fin := pollJob(t, ts.URL, accepted.ID, 30*time.Second)
	if fin.Status != jobs.StatusCancelled {
		t.Fatalf("cancelled running mine finished %s", fin.Status)
	}
	// No result was published: nothing pending to commit, slot free.
	doJSON(t, "POST", base+"/commit", nil, http.StatusConflict, nil)
	var mined MineResponse
	doJSON(t, "POST", base+"/mine", MineRequest{TimeoutMS: 300}, http.StatusOK, &mined)
	if mined.Status == "" {
		t.Fatalf("re-mine after cancel = %+v", mined)
	}
}

// TestMineQueueFull: a queue of capacity 1 with one worker reports 503
// on overflow instead of queueing unbounded work.
func TestMineQueueFull(t *testing.T) {
	ts := newTestServerWith(t, Options{Workers: 1, QueueCap: 1})
	mk := func(ds string, depth int) string {
		var info SessionInfo
		doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
			Dataset: ds, Depth: depth,
		}, http.StatusCreated, &info)
		return ts.URL + "/api/v1/sessions/" + info.ID
	}
	baseA := mk("mammals", 8)
	baseB := mk("mammals", 8)
	baseC := mk("synthetic", 2)

	var a, b jobView
	doJSON(t, "POST", baseA+"/mine", MineRequest{Async: true, TimeoutMS: 1200},
		http.StatusAccepted, &a)
	// Wait until the worker picked A up, so B occupies the queue slot
	// deterministically.
	for deadline := time.Now().Add(5 * time.Second); ; {
		var jv jobView
		doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+a.ID, nil, http.StatusOK, &jv)
		if jv.Status != jobs.StatusQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job A never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	doJSON(t, "POST", baseB+"/mine", MineRequest{Async: true, TimeoutMS: 1200},
		http.StatusAccepted, &b)
	doJSON(t, "POST", baseC+"/mine", MineRequest{Async: true}, http.StatusServiceUnavailable, nil)

	// The rejected session is not left with a stuck mine slot.
	pollJob(t, ts.URL, a.ID, 30*time.Second)
	pollJob(t, ts.URL, b.ID, 30*time.Second)
	var mined MineResponse
	doJSON(t, "POST", baseC+"/mine", nil, http.StatusOK, &mined)
	if mined.Location == nil {
		t.Fatal("mine after 503 failed")
	}
}
