package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzSnapshotFile feeds arbitrary bytes to the restore path twice.
// First as a snapshot file, restored the way a session restore does it:
// DirStore.Get, then restoreSession's log checks and replay. Second as
// the commit-log payload of a sealed snapshot of a synthetic session,
// so the log checks and the replay see inputs a CRC would otherwise
// stop. Each step either rejects with a typed error (ErrCorrupt,
// ErrIncompatible, or the plain error for a newer format) or succeeds;
// nothing panics. The reads share one buffer pool, so the target also
// checks that a snapshot already returned — the fuzzed one and a valid
// one held across every input — does not change when a later load
// reuses a pooled buffer. Seeds live in testdata/fuzz/FuzzSnapshotFile:
// the format-1 ones, which now reject as corrupt, and format-2 files
// and logs.
func FuzzSnapshotFile(f *testing.F) {
	dir := f.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	store.noSync = true
	if err := store.Put(memSnap("s0001", 3, 2)); err != nil {
		f.Fatal(err)
	}
	held, err := store.Get("s0001")
	if err != nil {
		f.Fatal(err)
	}
	heldJSON := mustMarshal(f, held)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, "s0002.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := store.Get("s0002")
		if err != nil {
			requireTyped(t, "snapshot", err, data)
		} else {
			before := mustMarshal(t, snap)
			if _, err := store.Get("s0001"); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustMarshal(t, snap), before) {
				t.Fatal("a returned snapshot changed when a later load reused the pool")
			}
			if !bytes.Equal(mustMarshal(t, held), heldJSON) {
				t.Fatal("a held snapshot changed when a later load reused the pool")
			}
			if _, err := restoreSession(snap); err != nil {
				requireTyped(t, "restore", err, nil)
			}
		}
		if _, err := restoreSession(logSnap(data)); err != nil {
			requireTyped(t, "log restore", err, nil)
		}
	})
}

// logSnap seals payload as the commit log of a synthetic session's
// snapshot. Its history and iteration count follow the payload's
// entries, so a fuzzed log gets past those two checks.
func logSnap(payload []byte) *Snapshot {
	snap := &Snapshot{
		ID:     "s0003",
		Create: CreateRequest{Dataset: "synthetic", Seed: 2, Depth: 2},
		Model:  payload,
	}
	var probe struct {
		Commits []struct {
			Kind string `json:"kind"`
		} `json:"commits"`
	}
	_ = json.Unmarshal(payload, &probe)
	for _, c := range probe.Commits {
		snap.History = append(snap.History, PatternJSON{Kind: c.Kind})
		if c.Kind == "location" {
			snap.Iterations++
		}
	}
	snap.Seal()
	return snap
}

// requireTyped fails unless err is one of the typed rejects: ErrCorrupt,
// ErrIncompatible, or the plain refusal of a newer format in data.
func requireTyped(t *testing.T, what string, err error, data []byte) {
	t.Helper()
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrIncompatible) && !newerFormat(data) {
		t.Fatalf("untyped %s reject: %v", what, err)
	}
}

// newerFormat reports whether data declares a "format" newer than this
// code reads — the one reject the snapshot loader leaves untyped, since
// such a file may be sound.
func newerFormat(data []byte) bool {
	var probe struct {
		Format int `json:"format"`
	}
	return json.Unmarshal(data, &probe) == nil && probe.Format > SnapshotFormat
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzV1RequestBodies feeds arbitrary bytes to POST /sessions and, when
// that creates a session, the same bytes to its mine, then posts its
// commit. No request may panic or answer 500 internal: a body the
// server cannot use is the client's error, and a search or commit that
// finds nothing to do has its own code. Every search gets at most
// 200 ms. The seeds are creates that once answered 500: searches that
// find no pattern, description lengths that made SI non-finite, and a
// spread with zero variance.
func FuzzV1RequestBodies(f *testing.F) {
	for _, body := range noPatternCreates {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"dataset":"synthetic","gamma":1e308,"eta":1e308}`))
	f.Add([]byte(`{"dataset":"synthetic","gamma":0,"eta":1e-320}`))
	f.Add([]byte(`{"dataset":"csv","csv":"a:d:num,y:t:num\n1,2\n1,2\n","spread":true}`))
	srv := NewWithOptions(Options{MaxMineBudget: 200 * time.Millisecond})
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		post := func(path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", APIPrefix+path, bytes.NewReader(body)))
			var env envelope
			if rec.Code == http.StatusInternalServerError &&
				json.Unmarshal(rec.Body.Bytes(), &env) == nil && env.Error.Code == errInternal {
				t.Fatalf("POST %s answered 500 internal: %s\nbody: %q", path, env.Error.Message, body)
			}
			return rec
		}
		rec := post("/sessions", body)
		if rec.Code != http.StatusCreated {
			return
		}
		var info SessionInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		session := "/sessions/" + info.ID
		defer h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("DELETE", APIPrefix+session, nil))
		post(session+"/mine", body)
		post(session+"/commit", nil)
	})
}
