package server

import (
	"net/http"
	"runtime"
	"testing"
)

// benchRestore times restoreFromStore on one handed-off session read
// from a MemStore: every iteration rebuilds the session from its
// snapshot. Setup runs the session over HTTP — iters mine → commit
// iterations, with spread when spread is set — and hands it off, so
// the store holds exactly what a shard migration leaves behind.
func benchRestore(b *testing.B, create CreateRequest, iters int, spread bool) {
	store := NewMemStore()
	base, stop := startServer(b, store)
	var info SessionInfo
	doJSON(b, "POST", base+"/sessions", create, http.StatusCreated, &info)
	for i := 0; i < iters; i++ {
		doJSON(b, "POST", base+"/sessions/"+info.ID+"/mine", MineRequest{Spread: spread}, http.StatusOK, nil)
		doJSON(b, "POST", base+"/sessions/"+info.ID+"/commit", nil, http.StatusOK, nil)
	}
	doJSON(b, "POST", base+"/sessions/"+info.ID+"/handoff", nil, http.StatusOK, nil)
	stop()
	srv := NewWithOptions(Options{Store: store})
	defer srv.Close()
	restore := func() *session {
		sess, err := srv.restoreFromStore(info.ID)
		if err != nil {
			b.Fatal(err)
		}
		srv.mu.Lock()
		delete(srv.sessions, info.ID)
		srv.mu.Unlock()
		return sess
	}
	// One restored session stays live, as others on a shard would, so
	// every timed restore shares its builtin replica instead of
	// regenerating it after a collection.
	held := restore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restore()
	}
	b.StopTimer()
	runtime.KeepAlive(held)
}

// BenchmarkRestoreCrime restores a crime session (depth 4) after 8
// location commits.
func BenchmarkRestoreCrime(b *testing.B) {
	benchRestore(b, CreateRequest{Dataset: "crime", Depth: 4}, 8, false)
}

// BenchmarkRestoreWaterSpread restores a water session (depth 1) after
// 6 location + spread commits: the spread refits make it the costly
// restore.
func BenchmarkRestoreWaterSpread(b *testing.B) {
	benchRestore(b, CreateRequest{Dataset: "water", Depth: 1}, 6, true)
}
