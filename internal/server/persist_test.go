package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// mineBody POSTs a mine and returns the decoded response.
func mineBody(t *testing.T, base string) MineResponse {
	t.Helper()
	var resp MineResponse
	doJSON(t, "POST", base+"/mine", nil, http.StatusOK, &resp)
	return resp
}

// canonical marshals a mine response with the per-run job id cleared,
// so two runs can be compared byte for byte.
func canonical(t *testing.T, resp MineResponse) []byte {
	t.Helper()
	resp.Job = ""
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSnapshotRestoreByteIdentical is the acceptance check for session
// persistence: a second server process sharing the same disk store
// restores the session and mines a byte-identical result.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	dir := t.TempDir()
	store1, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewWithOptions(Options{Store: store1})
	ts1 := httptest.NewServer(srv1.Handler())

	var info SessionInfo
	doJSON(t, "POST", ts1.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 620, Gamma: 0.5, Depth: 3,
	}, http.StatusCreated, &info)
	base1 := ts1.URL + "/api/v1/sessions/" + info.ID

	// One full iteration (commit auto-persists), then a second mine that
	// stays uncommitted — the reference the restored session must match.
	mineBody(t, base1)
	doJSON(t, "POST", base1+"/commit", nil, http.StatusOK, nil)
	want := mineBody(t, base1)
	var wantHist []PatternJSON
	doJSON(t, "GET", base1+"/history", nil, http.StatusOK, &wantHist)

	// "Restart": a fresh server over the same directory.
	ts1.Close()
	srv1.Close()
	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewWithOptions(Options{Store: store2})
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		srv2.Close()
	})
	base2 := ts2.URL + "/api/v1/sessions/" + info.ID

	got := mineBody(t, base2) // transparently restores the session
	if !bytes.Equal(canonical(t, want), canonical(t, got)) {
		t.Fatalf("restored mine differs:\n want %s\n got  %s",
			canonical(t, want), canonical(t, got))
	}
	var gotHist []PatternJSON
	doJSON(t, "GET", base2+"/history", nil, http.StatusOK, &gotHist)
	if len(gotHist) != len(wantHist) {
		t.Fatalf("history: %d entries, want %d", len(gotHist), len(wantHist))
	}

	// New sessions on the restarted server do not collide with restored
	// ids.
	var fresh SessionInfo
	doJSON(t, "POST", ts2.URL+"/api/v1/sessions", CreateRequest{Dataset: "synthetic"},
		http.StatusCreated, &fresh)
	if fresh.ID == info.ID {
		t.Fatalf("restarted server reissued id %s", fresh.ID)
	}
}

// TestLRUEvictionTransparent: sessions beyond MaxSessions are evicted
// to the store and restored on first touch with their state intact.
func TestLRUEvictionTransparent(t *testing.T) {
	ts := newTestServerWith(t, Options{MaxSessions: 2})
	mk := func(seed int64) string {
		var info SessionInfo
		doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
			Dataset: "synthetic", Seed: seed, Depth: 2,
		}, http.StatusCreated, &info)
		return info.ID
	}
	id1 := mk(1)
	base1 := ts.URL + "/api/v1/sessions/" + id1
	mineBody(t, base1)
	doJSON(t, "POST", base1+"/commit", nil, http.StatusOK, nil)
	mk(2)
	mk(3) // pushes the server past MaxSessions; LRU (id1) is evicted

	var sessions []SessionInfo
	doJSON(t, "GET", ts.URL+"/api/v1/sessions", nil, http.StatusOK, &sessions)
	live, persisted := 0, 0
	for _, s := range sessions {
		if s.Persisted {
			persisted++
		} else {
			live++
		}
	}
	if live != 2 || persisted != 1 {
		t.Fatalf("live=%d persisted=%d (want 2/1): %+v", live, persisted, sessions)
	}

	// Touching the evicted session restores it with history intact.
	var hist []PatternJSON
	doJSON(t, "GET", base1+"/history", nil, http.StatusOK, &hist)
	if len(hist) != 1 {
		t.Fatalf("restored history = %+v", hist)
	}
}

// TestTTLEviction: sessions idle past SessionTTL move to the store.
func TestTTLEviction(t *testing.T) {
	ts := newTestServerWith(t, Options{SessionTTL: 30 * time.Millisecond})
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 7, Depth: 2,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID
	mineBody(t, base)
	doJSON(t, "POST", base+"/commit", nil, http.StatusOK, nil)

	time.Sleep(60 * time.Millisecond)
	// Cap enforcement runs on create: this create sweeps the idle one.
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{Dataset: "synthetic"},
		http.StatusCreated, nil)

	var sessions []SessionInfo
	doJSON(t, "GET", ts.URL+"/api/v1/sessions", nil, http.StatusOK, &sessions)
	var evicted *SessionInfo
	for i := range sessions {
		if sessions[i].ID == info.ID {
			evicted = &sessions[i]
		}
	}
	if evicted == nil || !evicted.Persisted {
		t.Fatalf("idle session not evicted to store: %+v", sessions)
	}

	// And it still works: iteration count survived the round trip.
	doJSON(t, "POST", base+"/mine", nil, http.StatusOK, nil)
	doJSON(t, "GET", ts.URL+"/api/v1/sessions", nil, http.StatusOK, &sessions)
	for _, s := range sessions {
		if s.ID == info.ID && s.Iterations != 1 {
			t.Fatalf("restored iterations = %d", s.Iterations)
		}
	}
}

// TestDeleteRemovesStoreSnapshot: DELETE removes both the live session
// and its persisted snapshot (including store-only sessions).
func TestDeleteRemovesStoreSnapshot(t *testing.T) {
	ts := newTestServer(t)
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Depth: 2,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID
	mineBody(t, base)
	doJSON(t, "POST", base+"/commit", nil, http.StatusOK, nil)

	doJSON(t, "DELETE", base, nil, http.StatusOK, nil)
	// Gone from memory AND the store: no transparent resurrection.
	doJSON(t, "GET", base+"/history", nil, http.StatusNotFound, nil)
	doJSON(t, "DELETE", base, nil, http.StatusNotFound, nil)
	var sessions []SessionInfo
	doJSON(t, "GET", ts.URL+"/api/v1/sessions", nil, http.StatusOK, &sessions)
	if len(sessions) != 0 {
		t.Fatalf("sessions after delete = %+v", sessions)
	}
}

// TestSnapshotEndpoint: the explicit flush persists without a commit.
func TestSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServerWith(t, Options{Store: store})
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Depth: 2,
	}, http.StatusCreated, &info)
	var out map[string]any
	doJSON(t, "POST", ts.URL+"/api/v1/sessions/"+info.ID+"/snapshot", nil, http.StatusOK, &out)
	if out["id"] != info.ID || out["modelBytes"].(float64) <= 0 {
		t.Fatalf("snapshot = %+v", out)
	}
	got, err := store.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Create.Dataset != "synthetic" {
		t.Fatalf("stored snapshot = %+v", got)
	}
}

// TestDirStore unit-tests the disk store directly, including the path
// traversal guard.
func TestDirStore(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{
		ID:         "s0001",
		Create:     CreateRequest{Dataset: "synthetic", Seed: 9},
		Model:      json.RawMessage(`{"n":1}`),
		History:    []PatternJSON{{Kind: "location", Intention: "x<=1"}},
		Iterations: 3,
		SavedAt:    time.Now(),
	}
	snap.Seal()
	if err := store.Put(snap); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get("s0001")
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != 3 || got.Create.Seed != 9 || len(got.History) != 1 {
		t.Fatalf("round trip = %+v", got)
	}
	ids, err := store.List()
	if err != nil || len(ids) != 1 || ids[0] != "s0001" {
		t.Fatalf("list = %v, %v", ids, err)
	}
	if _, err := store.Get("../../etc/passwd"); err == nil {
		t.Fatal("path traversal id accepted")
	}
	if err := store.Put(&Snapshot{ID: "../evil"}); err == nil {
		t.Fatal("path traversal put accepted")
	}
	if existed, err := store.Delete("s0001"); err != nil || !existed {
		t.Fatalf("delete = %v, %v", existed, err)
	}
	if _, err := store.Get("s0001"); err == nil {
		t.Fatal("deleted snapshot still readable")
	}
	if existed, err := store.Delete("s0001"); err != nil || existed {
		t.Fatalf("double delete = %v, %v", existed, err)
	}
}
