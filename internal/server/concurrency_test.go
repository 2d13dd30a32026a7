package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
)

// postJSON is doJSON without *testing.T, safe to call from worker
// goroutines (t.Fatal must only run on the test goroutine).
func postJSON(method, url string, body any, wantStatus int, out any) error {
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		return fmt.Errorf("%s %s: status %d (want %d): %s",
			method, url, resp.StatusCode, wantStatus, msg.String())
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// TestConcurrentSessionsDoNotSerialize is the regression test for the
// old locking bug: the session lock used to be held across the entire
// mine call, so a second session's requests could serialize behind one
// expensive search. Now a long mine on session A runs on a pool worker
// while session B completes a full sync mine/commit loop.
func TestConcurrentSessionsDoNotSerialize(t *testing.T) {
	ts := newTestServerWith(t, Options{Workers: 2})
	var infoA SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "mammals", Depth: 8, BeamWidth: 1024,
	}, http.StatusCreated, &infoA)
	var infoB SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 620, Depth: 2,
	}, http.StatusCreated, &infoB)
	baseA := ts.URL + "/api/v1/sessions/" + infoA.ID
	baseB := ts.URL + "/api/v1/sessions/" + infoB.ID

	// Session A starts a mine that will use its whole 4s budget.
	var jobA jobView
	doJSON(t, "POST", baseA+"/mine", MineRequest{Async: true, TimeoutMS: 4000},
		http.StatusAccepted, &jobA)

	// Session B runs a complete interactive loop meanwhile.
	var minedB MineResponse
	doJSON(t, "POST", baseB+"/mine", nil, http.StatusOK, &minedB)
	if minedB.Location == nil {
		t.Fatal("session B mined nothing")
	}
	doJSON(t, "POST", baseB+"/commit", nil, http.StatusOK, nil)

	// A's search must still be in flight: B did not wait behind it.
	var jvA jobView
	doJSON(t, "GET", ts.URL+"/api/v1/jobs/"+jobA.ID, nil, http.StatusOK, &jvA)
	if jvA.Status.Terminal() {
		t.Fatalf("session A's 4s mine already %s while B completed a loop — "+
			"either the machine stalled for >4s or sessions serialize again", jvA.Status)
	}

	fin := pollJob(t, ts.URL, jobA.ID, 30*time.Second)
	if fin.Status != jobs.StatusDone {
		t.Fatalf("A's job: %s %s", fin.Status, fin.Error)
	}
	if fin.Result.Status == MineStatusComplete {
		t.Fatal("A's depth-8 mine claims completion inside the 4s budget")
	}
}

// TestConcurrentSessionDeterminism (run under -race in CI) drives N
// sessions through full mine/commit loops concurrently and asserts
// each session's trajectory is exactly what a serial run produces —
// concurrency must not leak state across sessions or reorder a
// session's own iterations.
func TestConcurrentSessionDeterminism(t *testing.T) {
	const users = 4
	const iters = 2

	type step struct {
		Intention string
		SI        float64
	}
	drive := func(ts string, user int) ([]step, error) {
		var info SessionInfo
		if err := postJSON("POST", ts+"/api/v1/sessions", CreateRequest{
			Dataset: "synthetic", Seed: int64(100 + user), Depth: 2,
		}, http.StatusCreated, &info); err != nil {
			return nil, err
		}
		base := ts + "/api/v1/sessions/" + info.ID
		var out []step
		for i := 0; i < iters; i++ {
			var mined MineResponse
			if err := postJSON("POST", base+"/mine", nil, http.StatusOK, &mined); err != nil {
				return nil, err
			}
			if mined.Location == nil {
				return nil, fmt.Errorf("user %d iter %d: no pattern", user, i)
			}
			out = append(out, step{mined.Location.Intention, mined.Location.SI})
			if err := postJSON("POST", base+"/commit", nil, http.StatusOK, nil); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	// Serial reference on its own server.
	serial := make([][]step, users)
	tsSerial := newTestServerWith(t, Options{Workers: 2})
	for u := 0; u < users; u++ {
		steps, err := drive(tsSerial.URL, u)
		if err != nil {
			t.Fatal(err)
		}
		serial[u] = steps
	}

	// Concurrent run on a fresh server.
	concurrent := make([][]step, users)
	errs := make([]error, users)
	tsConc := newTestServerWith(t, Options{Workers: users})
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			concurrent[u], errs[u] = drive(tsConc.URL, u)
		}(u)
	}
	wg.Wait()
	for u := 0; u < users; u++ {
		if errs[u] != nil {
			t.Fatal(errs[u])
		}
		for i := range serial[u] {
			if serial[u][i] != concurrent[u][i] {
				t.Fatalf("user %d iter %d: concurrent %+v != serial %+v",
					u, i, concurrent[u][i], serial[u][i])
			}
		}
	}
}
