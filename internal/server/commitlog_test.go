package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/pattern"
)

// handedOffSnapshot runs a synthetic session with two mine → commit
// iterations (with spread) on a server over a DirStore in dir, hands it
// off, and returns its id and the snapshot the store holds.
func handedOffSnapshot(t *testing.T, dir string) (string, *Snapshot) {
	t.Helper()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	base, stop := startServer(t, store)
	defer stop()
	var info SessionInfo
	doJSON(t, "POST", base+"/sessions", CreateRequest{Dataset: "synthetic", Seed: 2, Depth: 2}, http.StatusCreated, &info)
	for i := 0; i < 2; i++ {
		doJSON(t, "POST", base+"/sessions/"+info.ID+"/mine", MineRequest{Spread: true}, http.StatusOK, nil)
		doJSON(t, "POST", base+"/sessions/"+info.ID+"/commit", nil, http.StatusOK, nil)
	}
	doJSON(t, "POST", base+"/sessions/"+info.ID+"/handoff", nil, http.StatusOK, nil)
	snap, err := store.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	return info.ID, snap
}

// restoreCode restores id from store on a fresh server and returns the
// error code of the GET /history answer ("" for a 200).
func restoreCode(t *testing.T, store Store, id string) string {
	t.Helper()
	base, _ := startServer(t, store)
	resp, err := http.Get(base + "/sessions/" + id + "/history")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return ""
	}
	var env struct {
		Error struct{ Code string } `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return env.Error.Code
}

// TestFormat1SnapshotRejected: a format-1 file holds a model, not a
// commit log, so no restore can read it. It is rejected as corrupt
// like an unsealed file: quarantined, answered as snapshot_corrupt, and
// on a replicated store an answer that keeps the replica's breaker
// closed, so reading one does not take the store down for every other
// session.
func TestFormat1SnapshotRejected(t *testing.T) {
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSnapshotFile", "valid"))
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(strings.Split(string(seed), "\n")[1], "[]byte("), ")")
	file, err := strconv.Unquote(lit)
	if err != nil || !strings.HasPrefix(file, `{"format":1,`) {
		t.Fatalf("format-1 seed: %v %.40q", err, file)
	}
	write := func(dir string) string {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "s0002.json")
		if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	path := write(t.TempDir())
	store, err := NewDirStore(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if _, n := store.RecoveryStats(); n != 1 {
		t.Fatalf("open-time sweep quarantined %d files, want the format-1 one", n)
	}
	write(filepath.Dir(path))
	if code := restoreCode(t, store, "s0002"); code != errSnapshotCorrupt {
		t.Fatalf("restore answered %q, want %q", code, errSnapshotCorrupt)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("format-1 file not quarantined: %v", err)
	}

	root := t.TempDir()
	dirs := []string{filepath.Join(root, "r0"), filepath.Join(root, "r1"), filepath.Join(root, "r2")}
	rep, err := NewReplicatedDirStore(dirs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	for i := 0; i < 5; i++ { // past the breaker threshold, had the reads counted as failures
		for _, dir := range dirs {
			write(dir)
		}
		if _, err := rep.Get("s0002"); err == nil {
			t.Fatal("replicated Get restored a format-1 snapshot")
		}
	}
	if err := rep.Put(memSnap("s0003", 1, 1)); err != nil {
		t.Fatalf("a Put after reading format-1 files: %v", err)
	}
}

// TestDigestMismatchIncompatible: a sound snapshot whose replay does not
// rebuild the sealed model — a wrong digest, or a committed mean one
// ulp off — answers snapshot_incompatible, never a different model.
func TestDigestMismatchIncompatible(t *testing.T) {
	id, snap := handedOffSnapshot(t, t.TempDir())
	for name, mutate := range map[string]func(*commitLog){
		"unchanged": func(*commitLog) {},
		"digest":    func(l *commitLog) { l.Digest ^= 1 },
		"mean-ulp": func(l *commitLog) {
			m := l.Commits[0].Mean
			m[0] = math.Nextafter(m[0], math.Inf(1))
		},
	} {
		t.Run(name, func(t *testing.T) {
			var log commitLog
			if err := json.Unmarshal(snap.Model, &log); err != nil {
				t.Fatal(err)
			}
			mutate(&log)
			cp := *snap
			cp.Model = mustMarshal(t, log)
			cp.Seal()
			store := NewMemStore()
			if err := store.Put(&cp); err != nil {
				t.Fatal(err)
			}
			want := errIncompatible
			if name == "unchanged" {
				want = ""
			}
			if code := restoreCode(t, store, id); code != want {
				t.Fatalf("restore answered %q, want %q", code, want)
			}
		})
	}
}

// TestSnapshotFieldFlipCorrupt: the CRC covers every field a restore
// reads, so one flipped byte in any of them — the id, the create
// request, the history, the iteration count, a commit, the digest, or
// the CRC itself — answers snapshot_corrupt and quarantines the file.
func TestSnapshotFieldFlipCorrupt(t *testing.T) {
	dir := t.TempDir()
	id, _ := handedOffSnapshot(t, dir)
	path := filepath.Join(dir, id+".json")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"id":`, `"create":`, `"history":`, `"iterations":`, `"commits":`, `"digest":`, `"crc32c":`} {
		t.Run(strings.Trim(key, `":`), func(t *testing.T) {
			i := bytes.Index(pristine, []byte(key))
			if i < 0 {
				t.Fatalf("no %s in the snapshot", key)
			}
			// Flip the lowest bit of the first letter or digit of the
			// value: the JSON stays well-formed, only the CRC can tell.
			out := append([]byte(nil), pristine...)
			for i += len(key); !isAlnum(out[i]); i++ {
			}
			out[i] ^= 1
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
			if code := restoreCode(t, store, id); code != errSnapshotCorrupt {
				t.Fatalf("restore answered %q, want %q", code, errSnapshotCorrupt)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("no quarantine file: %v", err)
			}
			if err := os.WriteFile(path, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
	if code := restoreCode(t, store, id); code != "" {
		t.Fatalf("pristine snapshot answered %q", code)
	}
}

func isAlnum(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// TestRestoreRejectsHostileLog: restoreSession checks the whole log
// before the first refit. A malformed log wraps ErrCorrupt; one that
// does not fit the dataset wraps ErrIncompatible.
func TestRestoreRejectsHostileLog(t *testing.T) {
	_, snap := handedOffSnapshot(t, t.TempDir())
	for _, tc := range []struct {
		name   string
		want   error
		mutate func(*Snapshot, *commitLog)
	}{
		{"over-cap", ErrCorrupt, func(s *Snapshot, l *commitLog) {
			for len(l.Commits) <= maxLogCommits {
				l.Commits = append(l.Commits, l.Commits[0])
				s.History = append(s.History, s.History[0])
			}
		}},
		{"history-count", ErrCorrupt, func(s *Snapshot, _ *commitLog) { s.History = s.History[1:] }},
		{"iterations", ErrCorrupt, func(s *Snapshot, _ *commitLog) { s.Iterations++ }},
		{"unknown-kind", ErrCorrupt, func(_ *Snapshot, l *commitLog) { l.Commits[1].Kind = "scale" }},
		{"no-conditions", ErrCorrupt, func(_ *Snapshot, l *commitLog) { l.Commits[0].Conditions = nil }},
		{"too-many-conditions", ErrCorrupt, func(_ *Snapshot, l *commitLog) {
			for len(l.Commits[0].Conditions) <= maxSearchDepth {
				l.Commits[0].Conditions = append(l.Commits[0].Conditions, l.Commits[0].Conditions[0])
			}
		}},
		{"bad-op", ErrCorrupt, func(_ *Snapshot, l *commitLog) { l.Commits[0].Conditions[0].Op = 7 }},
		{"attr-out-of-range", ErrIncompatible, func(_ *Snapshot, l *commitLog) { l.Commits[3].Conditions[0].Attr = 1 << 20 }},
		{"level-out-of-range", ErrIncompatible, func(_ *Snapshot, l *commitLog) {
			l.Commits[3].Conditions[0] = pattern.Condition{Attr: 0, Op: pattern.EQ, Level: 99}
		}},
		{"empty-extension", ErrIncompatible, func(_ *Snapshot, l *commitLog) {
			c := l.Commits[3].Conditions[0]
			c.Op = pattern.NE
			l.Commits[3].Conditions = append(l.Commits[3].Conditions, c)
		}},
		{"mean-dims", ErrIncompatible, func(_ *Snapshot, l *commitLog) { l.Commits[2].Mean = l.Commits[2].Mean[:1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log commitLog
			if err := json.Unmarshal(snap.Model, &log); err != nil {
				t.Fatal(err)
			}
			cp := *snap
			cp.History = append([]PatternJSON(nil), snap.History...)
			tc.mutate(&cp, &log)
			cp.Model = mustMarshal(t, log)
			cp.Seal()
			if _, err := restoreSession(&cp); !errors.Is(err, tc.want) {
				t.Fatalf("restore = %v, want %v", err, tc.want)
			}
		})
	}
	if _, err := restoreSession(snap); err != nil {
		t.Fatalf("unmutated snapshot: %v", err)
	}
}
