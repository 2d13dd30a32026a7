package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
)

// envelope mirrors the /api/v1 error body.
type envelope struct {
	Error struct {
		Code         string `json:"code"`
		Message      string `json:"message"`
		RetryAfterMs int64  `json:"retryAfterMs"`
	} `json:"error"`
}

// TestV1ErrorEnvelope pins the error shape: responses carry the
// structured envelope with a specific code.
func TestV1ErrorEnvelope(t *testing.T) {
	ts := newTestServer(t)

	var env envelope
	doJSON(t, "GET", ts.URL+"/api/v1/sessions/zzz/history", nil, http.StatusNotFound, &env)
	if env.Error.Code != errNotFound || env.Error.Message == "" {
		t.Fatalf("v1 envelope = %+v", env)
	}

	// A v1 commit with nothing pending: envelope with a specific code.
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 620, Depth: 2,
	}, http.StatusCreated, &info)
	env = envelope{}
	doJSON(t, "POST", ts.URL+"/api/v1/sessions/"+info.ID+"/commit", nil, http.StatusConflict, &env)
	if env.Error.Code != errNothingPending {
		t.Fatalf("commit-nothing code = %q, want %q", env.Error.Code, errNothingPending)
	}
}

// TestNegativeDescriptionLengthRejected: a negative gamma or eta makes
// the description length γ·|intention| + η zero or negative, so SI
// would be infinite (a mine answering 200 with an empty body) or
// negative. Create rejects both up front.
func TestNegativeDescriptionLengthRejected(t *testing.T) {
	ts := newTestServer(t)
	for _, req := range []CreateRequest{
		{Dataset: "synthetic", Gamma: -1, Eta: 1},
		{Dataset: "synthetic", Gamma: 0.1, Eta: -1},
	} {
		var env envelope
		doJSON(t, "POST", ts.URL+"/api/v1/sessions", req, http.StatusBadRequest, &env)
		if env.Error.Code != errBadRequest {
			t.Fatalf("gamma=%g eta=%g: code %q, want %q", req.Gamma, req.Eta, env.Error.Code, errBadRequest)
		}
	}
}

// TestWriteJSONUnencodable: a value JSON cannot encode answers a 500
// envelope, not a success status with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, math.Inf(1))
	var env envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("status %d, body %q: %v", rec.Code, rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || env.Error.Code != errInternal {
		t.Fatalf("status %d, envelope %+v; want 500 %s", rec.Code, env, errInternal)
	}
}

// TestCommitInfeasibleIs422: a commit whose refit cannot enforce the
// constraint system answers 422 model_infeasible, not a 500, and leaves
// the pattern pending so a commit the model can enforce still lands.
// A one-sweep budget makes any violated constraint "not converged".
func TestCommitInfeasibleIs422(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 620, Depth: 2,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID
	doJSON(t, "POST", base+"/mine", nil, http.StatusOK, nil)

	sess, err := srv.lookup(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	setMaxSweeps := func(n int) {
		sess.commitMu.Lock()
		defer sess.commitMu.Unlock()
		sess.miner.Model.MaxSweeps = n
	}
	setMaxSweeps(1)
	var env envelope
	doJSON(t, "POST", base+"/commit", nil, http.StatusUnprocessableEntity, &env)
	if env.Error.Code != errModelInfeasible || env.Error.RetryAfterMs != 0 {
		t.Fatalf("infeasible commit envelope = %+v", env)
	}
	if got := sess.miner.Snapshot().Version(); got != 1 {
		t.Fatalf("failed commit published version %d", got)
	}

	setMaxSweeps(5000)
	var commit struct {
		Iterations   int    `json:"iterations"`
		ModelVersion uint64 `json:"modelVersion"`
	}
	doJSON(t, "POST", base+"/commit", nil, http.StatusOK, &commit)
	if commit.Iterations != 1 || commit.ModelVersion != 2 {
		t.Fatalf("commit after infeasible = %+v, want iteration 1 at version 2", commit)
	}
}

// TestV1MineReportsModelVersion drives mine → commit → mine through
// /api/v1 and checks the version stamps line up: the first mine runs
// against version 1, the commit publishes 2, the next mine reports 2,
// and the job records carry the same stamps.
func TestV1MineReportsModelVersion(t *testing.T) {
	ts := newTestServer(t)
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 620, Depth: 2,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID

	var mine MineResponse
	doJSON(t, "POST", base+"/mine", nil, http.StatusOK, &mine)
	if mine.ModelVersion != 1 {
		t.Fatalf("first mine modelVersion = %d, want 1", mine.ModelVersion)
	}
	var jv struct {
		ModelVersion uint64 `json:"modelVersion"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+mine.Job, nil, http.StatusOK, &jv)
	if jv.ModelVersion != 1 {
		t.Fatalf("job modelVersion = %d, want 1", jv.ModelVersion)
	}

	var commit struct {
		Iterations   int    `json:"iterations"`
		ModelVersion uint64 `json:"modelVersion"`
	}
	doJSON(t, "POST", base+"/commit", nil, http.StatusOK, &commit)
	if commit.ModelVersion != 2 {
		t.Fatalf("commit modelVersion = %d, want 2", commit.ModelVersion)
	}

	doJSON(t, "POST", base+"/mine", nil, http.StatusOK, &mine)
	if mine.ModelVersion != 2 {
		t.Fatalf("post-commit mine modelVersion = %d, want 2", mine.ModelVersion)
	}

	// The exported model carries the same stamp.
	var model struct {
		ModelVersion uint64 `json:"modelVersion"`
	}
	doJSON(t, "GET", base+"/model", nil, http.StatusOK, &model)
	if model.ModelVersion != 2 {
		t.Fatalf("exported modelVersion = %d, want 2", model.ModelVersion)
	}
}

// TestV1ConcurrentMinesOneSession is the headline v1 behavior: several
// mines on ONE session proceed concurrently, and mines pinned to the
// same model version return identical results.
func TestV1ConcurrentMinesOneSession(t *testing.T) {
	ts := newTestServerWith(t, Options{Workers: 4})
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 620, Depth: 2,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID

	const mines = 3
	results := make([]MineResponse, mines)
	errs := make([]error, mines)
	var wg sync.WaitGroup
	for i := 0; i < mines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = postJSON("POST", base+"/mine", nil, http.StatusOK, &results[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent mine %d: %v", i, err)
		}
	}
	for i := 1; i < mines; i++ {
		if results[i].ModelVersion != results[0].ModelVersion {
			t.Fatalf("mines pinned different versions: %d vs %d",
				results[i].ModelVersion, results[0].ModelVersion)
		}
		a, b := results[0].Location, results[i].Location
		if a == nil || b == nil || a.Intention != b.Intention || a.SI != b.SI {
			t.Fatalf("same-version mines disagree:\n%+v\n%+v", a, b)
		}
	}
}

// TestV1MinesRaceCommits races async v1 mines against a stream of
// commits on one session (run under -race in CI). Every mine must
// succeed with a version stamp from the published sequence, commits
// must advance the version monotonically, and the session must stay
// consistent (history length equals committed iterations).
func TestV1MinesRaceCommits(t *testing.T) {
	ts := newTestServerWith(t, Options{Workers: 4})
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 620, Depth: 2,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID

	const commits = 3
	var wg sync.WaitGroup
	mineErrs := make(chan error, 64)
	versions := make(chan uint64, 64)
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var resp MineResponse
				if err := postJSON("POST", base+"/mine", nil, http.StatusOK, &resp); err != nil {
					mineErrs <- err
					return
				}
				versions <- resp.ModelVersion
			}
		}()
	}
	// Commit stream: each round mines synchronously (also racing the
	// workers) and commits the pending pattern. A committed pattern may
	// be replaced by a racing worker's fresher pending before the
	// commit claims it, so tolerate the nothing-pending 409.
	var lastVersion uint64
	for i := 0; i < commits; i++ {
		var resp MineResponse
		doJSON(t, "POST", base+"/mine", nil, http.StatusOK, &resp)
		var commit struct {
			ModelVersion uint64 `json:"modelVersion"`
		}
		if err := postJSON("POST", base+"/commit", nil, http.StatusOK, &commit); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if commit.ModelVersion <= lastVersion {
			t.Fatalf("commit version did not advance: %d then %d", lastVersion, commit.ModelVersion)
		}
		lastVersion = commit.ModelVersion
	}
	close(stop)
	wg.Wait()
	close(mineErrs)
	close(versions)
	for err := range mineErrs {
		t.Errorf("racing mine: %v", err)
	}
	maxSeen := uint64(0)
	for v := range versions {
		if v < 1 || v > lastVersion {
			t.Errorf("mine reported version %d outside published range [1,%d]", v, lastVersion)
		}
		if v > maxSeen {
			maxSeen = v
		}
	}
	var hist []PatternJSON
	doJSON(t, "GET", base+"/history", nil, http.StatusOK, &hist)
	if len(hist) != commits {
		t.Fatalf("history length %d, want %d", len(hist), commits)
	}
}

// TestCancelReleasesSlotImmediately is the regression test for the
// stale-slot bug: cancelling a running mine used to leave the session's
// mine slot held until the worker noticed the cancellation at its next
// phase boundary — which on a deep search is seconds away. The slot
// must free at cancel-request time. A handoff probes it: handoff 409s
// mine_in_progress while any slot is held, so it succeeds only once the
// cancelled job's slot is gone, even while its search is still
// unwinding on the worker.
func TestCancelReleasesSlotImmediately(t *testing.T) {
	ts := newTestServerWith(t, Options{Workers: 1})
	var info SessionInfo
	// A deep, wide search on the largest replica: the cancelled Fn
	// stays busy in the beam long after the cancel request.
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "mammals", Depth: 8, BeamWidth: 1024,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID

	// The budget bounds how long the cancelled search keeps the worker
	// (and test teardown). It stays well above the probe window below,
	// so a handoff that succeeds inside the window proves the slot was
	// freed at cancel time, not when the search ran out of budget.
	const budget, probeWindow = 3 * time.Second, 500 * time.Millisecond
	var accepted jobView
	doJSON(t, "POST", base+"/mine", MineRequest{Async: true, TimeoutMS: int(budget / time.Millisecond)},
		http.StatusAccepted, &accepted)
	// Wait until it is actually running (dequeued), then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var jv jobView
		doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+accepted.ID, nil, http.StatusOK, &jv)
		if jv.Status == jobs.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running: %+v", jv)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// While the slot is held, the handoff must refuse.
	doJSON(t, "POST", base+"/handoff", nil, http.StatusConflict, nil)
	cancelled := time.Now()
	doJSON(t, "DELETE", ts.URL+"/api/v1/jobs/"+accepted.ID, nil, http.StatusOK, nil)

	// The slot must free promptly — well before the cancelled search
	// could have unwound. The retry loop only absorbs the watcher
	// goroutine's scheduling latency.
	released := false
	for time.Since(cancelled) < probeWindow {
		if err := postJSON("POST", base+"/handoff", nil, http.StatusOK, nil); err == nil {
			released = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !released {
		t.Fatalf("mine slot still held %v after cancelling the running job", probeWindow)
	}
}

// TestSyncMineReleasesSlotBeforeResponse pins that a finished sync mine
// holds no slot once its response is out: a handoff sent right after it
// must never answer 409 mine_in_progress. The loop runs 200 times over
// ten sessions; the cheap depth-1 mines leave the slot-release
// goroutine the least time to win the race.
func TestSyncMineReleasesSlotBeforeResponse(t *testing.T) {
	ts := newTestServerWith(t, Options{Store: NewMemStore()})
	const sessions, rounds = 10, 20
	for s := 0; s < sessions; s++ {
		id := fmt.Sprintf("slot-%d", s)
		doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
			ID: id, Dataset: "synthetic", Seed: int64(s + 1), Depth: 1,
		}, http.StatusCreated, nil)
		base := ts.URL + "/api/v1/sessions/" + id
		for i := 0; i < rounds; i++ {
			// After a handoff the session lives in the store only; the
			// next mine restores it.
			doJSON(t, "POST", base+"/mine", nil, http.StatusOK, nil)
			doJSON(t, "POST", base+"/commit", nil, http.StatusOK, nil)
			doJSON(t, "POST", base+"/handoff", nil, http.StatusOK, nil)
		}
	}
}

// BenchmarkMineUnderCommit gates the acceptance criterion that mine
// latency under a concurrent commit stream stays close to the
// no-commit baseline: mines pin a published version and never wait on
// a writer. The commit work runs on forks of the pinned version, so
// the mine workload itself is identical in both arms; p95 over the
// measured mines is reported as a custom metric alongside ns/op.
func BenchmarkMineUnderCommit(b *testing.B) {
	for _, commits := range []bool{false, true} {
		name := "baseline"
		if commits {
			name = "commits"
		}
		b.Run(name, func(b *testing.B) {
			sess, err := newSession(&CreateRequest{
				Dataset: "synthetic", Seed: 620, Depth: 2, BeamWidth: 16,
			})
			if err != nil {
				b.Fatal(err)
			}
			v := sess.miner.Snapshot()
			loc, _, err := sess.miner.MineAt(v, core.MineOptions{})
			if err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			if commits {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						fork := sess.miner.ForkAt(v)
						if err := fork.Model.CommitLocation(loc.Extension, loc.Mean); err != nil {
							return
						}
					}
				}()
			}
			durations := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, _, err := sess.miner.MineAt(v, core.MineOptions{}); err != nil {
					b.Fatal(err)
				}
				durations = append(durations, time.Since(start))
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
			p95 := durations[(len(durations)*95)/100%len(durations)]
			b.ReportMetric(float64(p95.Nanoseconds())/1e6, "p95-ms")
		})
	}
}
