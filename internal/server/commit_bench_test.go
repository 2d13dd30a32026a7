package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkCommitWaterSpread times one POST /commit of a spread mine on
// a water depth-1 session at iteration 3: the location leg, the spread
// leg and the snapshot Put to a MemStore, through the handler without
// a network hop. Every iteration first puts the session back at the
// same iteration-3 state (a Clone of it, dependency caches included,
// so the live model refits as it would have) and mines with a spread
// preview; neither is timed.
func BenchmarkCommitWaterSpread(b *testing.B) {
	srv := NewWithOptions(Options{Store: NewMemStore()})
	defer srv.Close()
	h := srv.Handler()
	call := func(method, path string, body any, want int) *httptest.ResponseRecorder {
		var rd io.Reader = http.NoBody
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				b.Fatal(err)
			}
			rd = bytes.NewReader(raw)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, APIPrefix+path, rd))
		if rec.Code != want {
			b.Fatalf("%s %s: status %d (want %d): %s", method, path, rec.Code, want, rec.Body)
		}
		return rec
	}
	var info SessionInfo
	rec := call("POST", "/sessions", CreateRequest{Dataset: "water", Depth: 1}, http.StatusCreated)
	if err := json.NewDecoder(rec.Body).Decode(&info); err != nil {
		b.Fatal(err)
	}
	path := "/sessions/" + info.ID
	const iters = 3
	for i := 0; i < iters; i++ {
		call("POST", path+"/mine", MineRequest{Spread: true}, http.StatusOK)
		call("POST", path+"/commit", nil, http.StatusOK)
	}
	srv.mu.Lock()
	sess := srv.sessions[info.ID]
	srv.mu.Unlock()
	model := sess.miner.Model.Clone()
	hist, log := len(sess.history), len(sess.log)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess.commitMu.Lock()
		sess.mu.Lock()
		if err := sess.miner.Restore(model.Clone(), iters); err != nil {
			b.Fatal(err)
		}
		sess.history, sess.log = sess.history[:hist], sess.log[:log]
		sess.iterations.Store(iters)
		sess.mu.Unlock()
		sess.commitMu.Unlock()
		call("POST", path+"/mine", MineRequest{Spread: true}, http.StatusOK)
		b.StartTimer()
		call("POST", path+"/commit", nil, http.StatusOK)
	}
}
