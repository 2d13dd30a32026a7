package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/background"
)

// FuzzSnapshotFile writes arbitrary bytes as a snapshot file and
// restores it the way a session restore does: DirStore.Get, then
// background.LoadJSONExact on the model. Each step either rejects with
// a typed error (ErrCorrupt, or the plain error for a newer format) or
// succeeds; nothing panics. The reads share one buffer pool, so the
// target also checks that a snapshot already returned — the fuzzed one
// and a valid one held across every input — does not change when a
// later load reuses a pooled buffer. Seeds live in
// testdata/fuzz/FuzzSnapshotFile.
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
			if !errors.Is(err, ErrCorrupt) && !newerFormat(data) {
				t.Fatalf("untyped snapshot reject: %v", err)
			}
			return
		}
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
		if _, err := background.LoadJSONExact(bytes.NewReader(snap.Model)); err != nil &&
			!errors.Is(err, background.ErrCorrupt) && !newerFormat(snap.Model) {
			t.Fatalf("untyped model reject: %v", err)
		}
	})
}

// newerFormat reports whether data declares a "format" newer than this
// code reads — the one reject the snapshot and model loaders leave
// untyped, since such a file may be sound. Both formats are 1.
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
