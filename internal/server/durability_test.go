package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultstore"
)

// v1ErrCode performs a request expected to fail and returns the error
// code from the /api/v1 envelope.
func v1ErrCode(t *testing.T, method, url string, body any, wantStatus int) string {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	doJSON(t, method, url, body, wantStatus, &env)
	return env.Error.Code
}

// newDirServer spins up a server over a DirStore on dir.
func newDirServer(t *testing.T, dir string) (*httptest.Server, *Server) {
	t.Helper()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(Options{Store: store})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, srv
}

// TestCorruptSnapshotSurfacesEnvelope is the truncation-at-offsets
// regression test: a snapshot file damaged behind a running server's
// back — truncated at various byte offsets, or with a model byte
// flipped so only the CRC notices — must surface as the structured
// snapshot_corrupt envelope (HTTP 500, no panic), and the file must be
// quarantined, never retried forever.
func TestCorruptSnapshotSurfacesEnvelope(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newDirServer(t, dir)

	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 11, Depth: 2,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID
	mineBody(t, base)
	doJSON(t, "POST", base+"/commit", nil, http.StatusOK, nil)

	path := filepath.Join(dir, info.ID+".json")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Second server over the same directory: the file is valid at
	// startup (so the recovery sweep leaves it alone) and corruption
	// lands afterwards, exercising the Get-time validation path.
	ts2, _ := newDirServer(t, dir)
	base2 := ts2.URL + "/api/v1/sessions/" + info.ID

	corruptions := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncate-to-0", func(b []byte) []byte { return b[:0] }},
		{"truncate-at-1", func(b []byte) []byte { return b[:1] }},
		{"truncate-quarter", func(b []byte) []byte { return b[:len(b)/4] }},
		{"truncate-half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncate-last-byte", func(b []byte) []byte { return b[:len(b)-1] }},
		// Valid JSON with a matching CRC, but no format: an unsealed
		// file is never restored.
		{"drop-format", func(b []byte) []byte { return setFormat(t, b, nil) }},
		{"flip-model-digit", func(b []byte) []byte {
			// Valid JSON, wrong content: only the CRC can catch this.
			out := append([]byte(nil), b...)
			i := bytes.Index(out, []byte(`"log":`))
			if i < 0 {
				t.Fatal("no log field in snapshot")
			}
			for ; i < len(out); i++ {
				if out[i] >= '1' && out[i] <= '8' {
					out[i]++
					return out
				}
			}
			t.Fatal("no digit found in log payload")
			return nil
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.mutate(pristine), 0o644); err != nil {
				t.Fatal(err)
			}
			code := v1ErrCode(t, "GET", base2+"/history", nil, http.StatusInternalServerError)
			if code != errSnapshotCorrupt {
				t.Fatalf("error code = %q, want %q", code, errSnapshotCorrupt)
			}
			// Quarantined: the damaged file was moved aside, preserved for
			// inspection, and is no longer served.
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("no quarantine file: %v", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged file still live: %v", err)
			}
			// After quarantine the session is gone, not poisoned.
			doJSON(t, "GET", base2+"/history", nil, http.StatusNotFound, nil)
			// Reset for the next corruption shape.
			if err := os.Remove(path + ".corrupt"); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}

	// The pristine file restored: the session serves again.
	doJSON(t, "GET", base2+"/history", nil, http.StatusOK, nil)
}

// setFormat rewrites a snapshot file's "format" field; nil drops it.
func setFormat(t *testing.T, raw []byte, format any) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if format == nil {
		delete(m, "format")
	} else {
		m["format"] = format
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDirStoreSnapshotFormat: a file that is otherwise valid but has no
// "format" is unsealed and quarantined, both by the open-time sweep and
// by Get. A newer format is refused and left in place: it may be sound,
// this code just cannot read it.
func TestDirStoreSnapshotFormat(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{ID: "s0001", Model: json.RawMessage(`{"n":1}`)}
	snap.Seal()
	if err := store.Put(snap); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "s0001.json")
	sealed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	write := func(raw []byte) {
		t.Helper()
		_ = os.Remove(path + ".corrupt")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	quarantined := func() bool {
		t.Helper()
		_, errLive := os.Stat(path)
		_, errAside := os.Stat(path + ".corrupt")
		return os.IsNotExist(errLive) && errAside == nil
	}

	write(setFormat(t, sealed, nil))
	if _, err := store.Get("s0001"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of unsealed file = %v, want ErrCorrupt", err)
	}
	if !quarantined() {
		t.Fatal("Get left the unsealed file live")
	}
	write(setFormat(t, sealed, nil))
	reopened, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, n := reopened.RecoveryStats(); n != 1 || !quarantined() {
		t.Fatalf("open-time sweep quarantined %d files, want the unsealed one", n)
	}

	write(setFormat(t, sealed, SnapshotFormat+1))
	if _, err := NewDirStore(dir); err != nil {
		t.Fatal(err)
	}
	_, err = store.Get("s0001")
	if err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of a newer format = %v, want a plain refusal", err)
	}
	if _, statErr := os.Stat(path); statErr != nil {
		t.Fatalf("newer-format file was moved aside: %v", statErr)
	}
}

// TestRecoverySweep: NewDirStore clears torn temp files and
// quarantines snapshots that fail validation, so a post-crash startup
// begins from a clean, fully verified directory.
func TestRecoverySweep(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := &Snapshot{
		ID:     "s0001",
		Create: CreateRequest{Dataset: "synthetic"},
		Model:  json.RawMessage(`{"n":1}`),
	}
	good.Seal()
	if err := store.Put(good); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write (orphaned temp files) plus bit rot in a
	// second snapshot (valid-looking file, wrong bytes).
	for i := 0; i < 3; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("s%04d.json.%d.tmp", i, i)), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "s0002.json"), []byte(`{"id":"s0002","format":1,`), 0o644); err != nil {
		t.Fatal(err)
	}

	recovered, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tmp, quarantined := recovered.RecoveryStats()
	if tmp != 3 || quarantined != 1 {
		t.Fatalf("recovery stats = (%d tmp, %d quarantined), want (3, 1)", tmp, quarantined)
	}
	ids, err := recovered.List()
	if err != nil || len(ids) != 1 || ids[0] != "s0001" {
		t.Fatalf("list after recovery = %v, %v", ids, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "s0002.json.corrupt")); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
	leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(leftovers) != 0 {
		t.Fatalf("temp files survived recovery: %v", leftovers)
	}
}

// storeView is the durable-state triple a snapshot must keep
// consistent: a Put failure may leave the old or the new version, but
// never a mix.
type storeView struct {
	Model      string
	Iterations int
	History    int
}

func viewOf(snap *Snapshot) storeView {
	return storeView{Model: string(snap.Model), Iterations: snap.Iterations, History: len(snap.History)}
}

// TestCommitPutFailureNeverTearsDurableState: for every persist point
// in a session's life (create, each commit, explicit snapshot), an
// outage at exactly that point leaves the stored snapshot equal to one
// of the versions a clean run produces — the session is durable at the
// old or the new belief state, never in between.
func TestCommitPutFailureNeverTearsDurableState(t *testing.T) {
	// Reference run: record the durable state after each lifecycle step.
	runSession := func(ts *httptest.Server, breakAt string, fs *faultstore.Store[Snapshot]) {
		t.Helper()
		gate := func(step string, op func(wantPersisted bool)) {
			if step == breakAt {
				fs.Break(nil)
				op(false)
				fs.Heal()
				return
			}
			op(true)
		}
		var info SessionInfo
		gate("create", func(bool) {
			doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
				Dataset: "synthetic", Seed: 21, Depth: 2,
			}, http.StatusCreated, &info)
		})
		base := ts.URL + "/api/v1/sessions/" + info.ID
		for i := 0; i < 2; i++ {
			mineBody(t, base)
			gate(fmt.Sprintf("commit%d", i+1), func(wantPersisted bool) {
				var out struct {
					Persisted   bool   `json:"persisted"`
					Persistence string `json:"persistence"`
				}
				doJSON(t, "POST", base+"/commit", nil, http.StatusOK, &out)
				if out.Persisted != wantPersisted {
					t.Fatalf("commit %d persisted = %v, want %v", i+1, out.Persisted, wantPersisted)
				}
			})
		}
		gate("snapshot", func(wantPersisted bool) {
			status := http.StatusOK
			if !wantPersisted {
				status = http.StatusServiceUnavailable
			}
			doJSON(t, "POST", base+"/snapshot", nil, status, nil)
		})
	}

	// Clean run collects the legitimate durable versions.
	refInner := NewMemStore()
	refFS := faultstore.New[Snapshot](refInner, faultstore.Plan{})
	refSrv := NewWithOptions(Options{Store: refFS})
	refTS := httptest.NewServer(refSrv.Handler())
	defer func() { refTS.Close(); refSrv.Close() }()
	runSession(refTS, "", refFS)
	refIDs, _ := refInner.List()
	if len(refIDs) != 1 {
		t.Fatalf("reference run stored %v", refIDs)
	}
	// The clean run's persist points: after create (0 commits), after
	// commit1, after commit2. Rebuild each from a replayed prefix.
	var versions []storeView
	{
		inner := NewMemStore()
		srv := NewWithOptions(Options{Store: inner})
		ts := httptest.NewServer(srv.Handler())
		var info SessionInfo
		doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
			Dataset: "synthetic", Seed: 21, Depth: 2,
		}, http.StatusCreated, &info)
		base := ts.URL + "/api/v1/sessions/" + info.ID
		record := func() {
			snap, err := inner.Get(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			versions = append(versions, viewOf(snap))
		}
		record()
		for i := 0; i < 2; i++ {
			mineBody(t, base)
			doJSON(t, "POST", base+"/commit", nil, http.StatusOK, nil)
			record()
		}
		ts.Close()
		srv.Close()
	}

	for _, breakAt := range []string{"create", "commit1", "commit2", "snapshot"} {
		t.Run("break-"+breakAt, func(t *testing.T) {
			inner := NewMemStore()
			fs := faultstore.New[Snapshot](inner, faultstore.Plan{})
			srv := NewWithOptions(Options{Store: fs})
			ts := httptest.NewServer(srv.Handler())
			defer func() { ts.Close(); srv.Close() }()
			runSession(ts, breakAt, fs)
			ids, _ := inner.List()
			if breakAt == "create" && len(ids) == 0 {
				// The one persist point with no prior durable version: an
				// outage there legitimately leaves nothing.
				return
			}
			if len(ids) != 1 {
				t.Fatalf("stored sessions = %v", ids)
			}
			snap, err := inner.Get(ids[0])
			if err != nil {
				t.Fatal(err)
			}
			got := viewOf(snap)
			for _, v := range versions {
				if got == v {
					return // durable at a legitimate version — old or new
				}
			}
			t.Fatalf("durable state %+v matches no clean-run version %+v", got, versions)
		})
	}
}

// TestDegradedModeEntryAndHeal: a store outage flips the server to
// degraded persistence (advertised on commits, readyz and the snapshot
// endpoint) and the first successful write heals it.
func TestDegradedModeEntryAndHeal(t *testing.T) {
	inner := NewMemStore()
	fs := faultstore.New[Snapshot](inner, faultstore.Plan{})
	srv := NewWithOptions(Options{Store: fs})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 31, Depth: 2,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID

	var ready Readiness
	doJSON(t, "GET", ts.URL+"/api/v1/readyz", nil, http.StatusOK, &ready)
	if !ready.Ready || ready.Persistence != PersistenceOK {
		t.Fatalf("healthy readyz = %+v", ready)
	}

	fs.Break(nil)
	mineBody(t, base)
	var out struct {
		Persisted   bool   `json:"persisted"`
		Persistence string `json:"persistence"`
	}
	doJSON(t, "POST", base+"/commit", nil, http.StatusOK, &out)
	if out.Persisted || out.Persistence != PersistenceDegraded {
		t.Fatalf("commit during outage = %+v", out)
	}
	if code := v1ErrCode(t, "POST", base+"/snapshot", nil, http.StatusServiceUnavailable); code != errStoreDegraded {
		t.Fatalf("snapshot during outage: code %q", code)
	}
	doJSON(t, "GET", ts.URL+"/api/v1/readyz", nil, http.StatusServiceUnavailable, &ready)
	if ready.Ready || ready.Persistence != PersistenceDegraded {
		t.Fatalf("degraded readyz = %+v", ready)
	}
	// Serving continues from memory while degraded.
	doJSON(t, "GET", base+"/history", nil, http.StatusOK, nil)

	fs.Heal()
	// The explicit snapshot doubles as the heal probe.
	doJSON(t, "POST", base+"/snapshot", nil, http.StatusOK, nil)
	doJSON(t, "GET", ts.URL+"/api/v1/readyz", nil, http.StatusOK, &ready)
	if !ready.Ready || ready.Persistence != PersistenceOK {
		t.Fatalf("healed readyz = %+v", ready)
	}
	doJSON(t, "POST", base+"/mine", nil, http.StatusOK, nil)
	doJSON(t, "POST", base+"/commit", nil, http.StatusOK, &out)
	if !out.Persisted || out.Persistence != PersistenceOK {
		t.Fatalf("commit after heal = %+v", out)
	}
	if _, err := inner.Get(info.ID); err != nil {
		t.Fatalf("healed store has no snapshot: %v", err)
	}
}

// TestCreateAgainstUnreachableStore: while the store cannot be read, a
// create with a pinned id cannot know whether another shard owns the
// id, so it answers 503 store_degraded with a retry hint instead of
// claiming the id exists. A server-minted create makes one store probe,
// keeps that id and starts the session with degraded persistence.
func TestCreateAgainstUnreachableStore(t *testing.T) {
	fs := faultstore.New[Snapshot](NewMemStore(), faultstore.Plan{})
	srv := NewWithOptions(Options{Store: fs})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	fs.Break(nil)

	var env struct {
		Error errorBody `json:"error"`
	}
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{ID: "pinned-1", Dataset: "synthetic", Seed: 31},
		http.StatusServiceUnavailable, &env)
	if env.Error.Code != errStoreDegraded || env.Error.RetryAfterMs != degradedRetryAfter.Milliseconds() {
		t.Errorf("pinned create during outage = %+v, want code %q with a %v retry hint",
			env.Error, errStoreDegraded, degradedRetryAfter)
	}

	// Each minted create makes one id probe, and its persist one
	// stale-write fence read (storePut).
	for i, want := range []string{"s0001", "s0002"} {
		gets := fs.Stats().Gets
		var info SessionInfo
		doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{Dataset: "synthetic", Seed: 31}, http.StatusCreated, &info)
		if n := fs.Stats().Gets - gets; n != 2 {
			t.Errorf("minted create %d made %d store Gets, want 2", i+1, n)
		}
		if info.ID != want || info.Persistence != PersistenceDegraded {
			t.Errorf("minted create %d = id %q persistence %q, want %q %q",
				i+1, info.ID, info.Persistence, want, PersistenceDegraded)
		}
	}
}

// TestCommitPutSingleAttempt: storePut makes exactly one store.Put per
// persist — no retry loop and no back-off sleeps on the request path.
// A failed Put answers persisted:false at once and enters degraded
// mode; the next successful Put heals it.
func TestCommitPutSingleAttempt(t *testing.T) {
	inner := NewMemStore()
	fs := faultstore.New[Snapshot](inner, faultstore.Plan{})
	srv := NewWithOptions(Options{Store: fs})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 33, Depth: 2,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID

	var out struct {
		Persisted   bool   `json:"persisted"`
		Persistence string `json:"persistence"`
	}
	commit := func() (puts int) {
		t.Helper()
		mineBody(t, base)
		before := fs.Stats().Puts
		doJSON(t, "POST", base+"/commit", nil, http.StatusOK, &out)
		return fs.Stats().Puts - before
	}

	fs.Break(nil)
	if puts := commit(); puts != 1 {
		t.Fatalf("commit against a broken store made %d Puts, want 1", puts)
	}
	if out.Persisted || out.Persistence != PersistenceDegraded {
		t.Fatalf("commit during outage = %+v", out)
	}

	fs.Heal()
	if puts := commit(); puts != 1 {
		t.Fatalf("commit after heal made %d Puts, want 1", puts)
	}
	if !out.Persisted || out.Persistence != PersistenceOK {
		t.Fatalf("commit after heal = %+v", out)
	}
	snap, err := inner.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Iterations != 2 {
		t.Fatalf("healed store holds iterations=%d, want 2", snap.Iterations)
	}
}

// TestDirStorePutRejectsUnverified: the writer seals, DirStore.Put
// only verifies. An unsealed snapshot, or one whose model no longer
// matches its CRC, is refused with ErrCorrupt before any file is
// written — neither the live <id>.json nor a temp file appears.
func TestDirStorePutRejectsUnverified(t *testing.T) {
	unsealed := &Snapshot{ID: "s0001", Model: json.RawMessage(`{"n":1}`)}
	mismatched := &Snapshot{ID: "s0001", Model: json.RawMessage(`{"n":1}`)}
	mismatched.Seal()
	mismatched.Model = json.RawMessage(`{"n":2}`)

	for name, snap := range map[string]*Snapshot{"unsealed": unsealed, "crc-mismatch": mismatched} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := NewDirStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Put(snap); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Put = %v, want ErrCorrupt", err)
			}
			if _, err := os.Stat(filepath.Join(dir, "s0001.json")); !os.IsNotExist(err) {
				t.Fatalf("rejected Put left a live file: %v", err)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
				t.Fatalf("rejected Put left temp files: %v", tmps)
			}
		})
	}
}

// TestDirStoreConcurrentLazyOpen: operations racing on a DirStore whose
// directory is unavailable all fail and retry the open; once the path
// heals, racing operations open it and all succeed — the -race leg for
// DirStore.open.
func TestDirStoreConcurrentLazyOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "replica")
	if err := os.WriteFile(dir, []byte("dead disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	store := &DirStore{dir: dir}
	race := func(wantErr bool) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				snap := memSnap(fmt.Sprintf("s%d", i), 1, 1)
				if errs[i] = store.Put(snap); errs[i] == nil {
					_, errs[i] = store.Get(snap.ID)
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if (err != nil) != wantErr {
				t.Fatalf("op %d: err = %v, want error %v", i, err, wantErr)
			}
		}
	}
	race(true)
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	race(false)
	if ids, err := store.List(); err != nil || len(ids) != 8 {
		t.Fatalf("List = %v, %v", ids, err)
	}
}

// TestDegradedFlapUnderConcurrency exercises the degraded entry/exit
// transitions while commits and snapshots race an outage that flaps —
// the -race leg for storeHealth. Correctness bar: no data race, no
// deadlock, and a final snapshot after heal is durable.
func TestDegradedFlapUnderConcurrency(t *testing.T) {
	inner := NewMemStore()
	fs := faultstore.New[Snapshot](inner, faultstore.Plan{})
	srv := NewWithOptions(Options{Store: fs})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 41, Depth: 2,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the flapping outage
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			fs.Break(nil)
			time.Sleep(2 * time.Millisecond)
			fs.Heal()
			time.Sleep(2 * time.Millisecond)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() { // snapshot/readyz traffic riding the flaps
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req, _ := http.NewRequest("POST", base+"/snapshot", strings.NewReader(""))
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close() // 200 or 503 are both legitimate mid-flap
				}
				if resp, err := http.Get(ts.URL + "/api/v1/readyz"); err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 3; i++ { // commits riding the flaps
		mineBody(t, base)
		doJSON(t, "POST", base+"/commit", nil, http.StatusOK, nil)
	}
	close(stop)
	wg.Wait()

	fs.Heal()
	doJSON(t, "POST", base+"/snapshot", nil, http.StatusOK, nil)
	snap, err := inner.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Iterations != 3 || len(snap.History) != 3 {
		t.Fatalf("final durable state: iterations=%d history=%d, want 3/3", snap.Iterations, len(snap.History))
	}
}

// TestHealthzAndDrain: liveness always answers; drain flushes every
// session durably, then turns away new sessions and mines while reads
// keep working.
func TestHealthzAndDrain(t *testing.T) {
	ts, _ := newDirServer(t, t.TempDir())

	var health map[string]string
	doJSON(t, "GET", ts.URL+"/api/v1/healthz", nil, http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %+v", health)
	}

	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/api/v1/sessions", CreateRequest{
		Dataset: "synthetic", Seed: 51, Depth: 2,
	}, http.StatusCreated, &info)
	base := ts.URL + "/api/v1/sessions/" + info.ID
	mineBody(t, base)
	doJSON(t, "POST", base+"/commit", nil, http.StatusOK, nil)

	var rep DrainReport
	doJSON(t, "POST", ts.URL+"/api/v1/drain?timeoutMs=5000", nil, http.StatusOK, &rep)
	if !rep.Draining || !rep.JobsDrained || rep.Sessions != 1 || rep.Durable != 1 || len(rep.Failed) != 0 {
		t.Fatalf("drain report = %+v", rep)
	}

	// Drained: intake is closed with the structured 503 …
	if code := v1ErrCode(t, "POST", ts.URL+"/api/v1/sessions",
		CreateRequest{Dataset: "synthetic"}, http.StatusServiceUnavailable); code != errDraining {
		t.Fatalf("create while draining: code %q", code)
	}
	if code := v1ErrCode(t, "POST", base+"/mine", nil, http.StatusServiceUnavailable); code != errDraining {
		t.Fatalf("mine while draining: code %q", code)
	}
	// … readiness reports it …
	var ready Readiness
	doJSON(t, "GET", ts.URL+"/api/v1/readyz", nil, http.StatusServiceUnavailable, &ready)
	if ready.Ready || len(ready.Reasons) == 0 {
		t.Fatalf("readyz while draining = %+v", ready)
	}
	// … and reads still serve (memory is intact until the kill).
	doJSON(t, "GET", base+"/history", nil, http.StatusOK, nil)
	doJSON(t, "GET", ts.URL+"/api/v1/healthz", nil, http.StatusOK, nil)

	// Drain is idempotent: a retry re-flushes and reports again.
	doJSON(t, "POST", ts.URL+"/api/v1/drain?timeoutMs=5000", nil, http.StatusOK, &rep)
	if rep.Sessions != 1 || rep.Durable != 1 {
		t.Fatalf("second drain report = %+v", rep)
	}
}
