package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestDirStoreFileBytesMatchMarshal: DirStore.Put encodes through a
// pooled buffer and must write exactly json.Marshal(snap)'s bytes —
// HTML escaping, non-ASCII text, and no trailing newline included — so
// the on-disk format is unchanged by how it is produced.
func TestDirStoreFileBytesMatchMarshal(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.noSync = true
	snap := &Snapshot{
		ID:     "s0001",
		Create: CreateRequest{Dataset: "synthetic", Seed: 3},
		// SaveJSON's shape: compact JSON plus a newline.
		Model: json.RawMessage(`{"note":"a<b && c>d, Größe ≤ 5","v":[1,2.5e-7]}` + "\n"),
		History: []PatternJSON{
			{Kind: "location", Intention: "x1<=0.5 & x2='größer'", Mean: []float64{1, -2}},
			{Kind: "spread", Intention: "<script>&amp;</script> — é", Variance: 0.25},
		},
		Iterations: 2,
		SavedAt:    time.Date(2024, 5, 6, 7, 8, 9, 10, time.UTC),
	}
	snap.Seal()
	for round := 0; round < 3; round++ { // later rounds reuse a pooled buffer
		if err := store.Put(snap); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "s0001.json"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: file bytes differ from json.Marshal:\n got %s\nwant %s", round, got, want)
		}
		snap.Iterations++
		snap.Seal() // the CRC covers the iteration count
	}
}

// TestDirStoreConcurrentPutGet: Puts and Gets of distinct ids share the
// encode/read buffer pool. Every Get must return exactly what was put,
// and must keep returning it after further traffic through the pool —
// a returned snapshot never aliases a pooled buffer. Run under -race.
func TestDirStoreConcurrentPutGet(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.noSync = true
	const workers, rounds = 4, 25
	type held struct{ want, got *Snapshot }
	results := make([][]held, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("s%04d", w)
			for r := 0; r < rounds; r++ {
				snap := &Snapshot{
					ID:         id,
					Create:     CreateRequest{Dataset: "synthetic", Seed: int64(w)},
					Model:      json.RawMessage(fmt.Sprintf(`{"w":%d,"r":%d,"pad":%q}`, w, r, bytes.Repeat([]byte{'a' + byte(w)}, 64*r))),
					History:    []PatternJSON{{Kind: "location", Intention: fmt.Sprintf("w%d<r%d", w, r), Mean: []float64{float64(r)}}},
					Iterations: r,
					SavedAt:    time.Unix(int64(1000*w+r), 0).UTC(),
				}
				snap.Seal()
				if err := store.Put(snap); err != nil {
					t.Error(err)
					return
				}
				got, err := store.Get(id)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, snap) {
					t.Errorf("%s round %d: Get = %+v, want %+v", id, r, got, snap)
					return
				}
				results[w] = append(results[w], held{snap, got})
			}
		}(w)
	}
	wg.Wait()
	for w, rs := range results {
		for r, h := range rs {
			if !reflect.DeepEqual(h.got, h.want) {
				t.Fatalf("worker %d round %d: snapshot changed after later pool traffic", w, r)
			}
		}
	}
}

// TestDirStoreSharedDirSameID: two DirStores over one directory (two
// processes sharing a store) Put and Get one id concurrently. Each Put
// has its own temp file, so every Put succeeds and no Get ever sees a
// torn live file — with one shared <id>.json.tmp, renames failed with
// ENOENT and interleaved writes tore the live file.
func TestDirStoreSharedDirSameID(t *testing.T) {
	dir := t.TempDir()
	var stores []*DirStore
	for i := 0; i < 2; i++ {
		s, err := NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.noSync = true
		stores = append(stores, s)
	}
	if err := stores[0].Put(memSnap("s0001", 0, 1)); err != nil {
		t.Fatal(err)
	}
	const perWorker = 300
	var (
		mu    sync.Mutex
		fails []string
	)
	record := func(op string, err error) {
		mu.Lock()
		fails = append(fails, op+": "+err.Error())
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			store := stores[g%2]
			for i := 0; i < perWorker; i++ {
				if err := store.Put(memSnap("s0001", g*perWorker+i, 1+i%7)); err != nil {
					record("Put", err)
				}
				if _, err := store.Get("s0001"); err != nil {
					record("Get", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if len(fails) > 0 {
		t.Errorf("%d operations failed; first: %s", len(fails), fails[0])
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
	if bad, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(bad) != 0 {
		t.Errorf("live file quarantined: %v", bad)
	}
}

// TestRestoreHostileModelIsCorrupt: a checksum-valid snapshot whose
// payload is a model (here one indexing points outside [0, n)) rather
// than a commit log is a snapshot_corrupt restore, not a panic inside
// the handler.
func TestRestoreHostileModelIsCorrupt(t *testing.T) {
	for name, model := range map[string]string{
		"member-out-of-range": `{"n":2,"d":1,"groups":[{"members":[0,5],"mu":[0],"sigma":[1]}],"constraints":[]}`,
		"ext-negative": `{"n":2,"d":1,"groups":[{"members":[0,1],"mu":[0],"sigma":[1]}],` +
			`"constraints":[{"kind":"location","ext":[-1],"target":[0]}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			store := NewMemStore()
			snap := &Snapshot{ID: "s0001", Create: CreateRequest{Dataset: "synthetic", Seed: 1}, Model: json.RawMessage(model)}
			snap.Seal()
			if err := store.Put(snap); err != nil {
				t.Fatal(err)
			}
			ts := newTestServerWith(t, Options{Store: store})
			code := v1ErrCode(t, "GET", ts.URL+"/api/v1/sessions/s0001/history", nil, http.StatusInternalServerError)
			if code != errSnapshotCorrupt {
				t.Fatalf("error code = %q, want %q", code, errSnapshotCorrupt)
			}
		})
	}
}
