package server

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// newRegistryServer is a server whose sessions the test can inspect.
func newRegistryServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, srv
}

// liveDataset returns the dataset of a session held in memory.
func liveDataset(t *testing.T, srv *Server, id string) *dataset.Dataset {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	sess := srv.sessions[id]
	if sess == nil {
		t.Fatalf("session %s is not live", id)
	}
	return sess.miner.DS
}

func createSession(t *testing.T, base string, req CreateRequest) string {
	t.Helper()
	var info SessionInfo
	doJSON(t, "POST", base+"/api/v1/sessions", req, http.StatusCreated, &info)
	return info.ID
}

// TestBuiltinReplicaShared: sessions on the same builtin replica, even
// when created concurrently, share one dataset and therefore one cached
// condition Language.
func TestBuiltinReplicaShared(t *testing.T) {
	ts, srv := newRegistryServer(t)
	req := CreateRequest{Dataset: "crime", Seed: 7, Depth: 1, NumSplits: 4}
	ids := make([]string, 4)
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var info SessionInfo
			errs[i] = postJSON("POST", ts.URL+"/api/v1/sessions", req, http.StatusCreated, &info)
			ids[i] = info.ID
			if errs[i] == nil {
				errs[i] = postJSON("POST", ts.URL+"/api/v1/sessions/"+info.ID+"/mine", nil, http.StatusOK, nil)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	ds := liveDataset(t, srv, ids[0])
	lang := engine.LanguageFor(ds, 4)
	for _, id := range ids[1:] {
		other := liveDataset(t, srv, id)
		if other != ds {
			t.Fatal("crime seed-7 sessions hold distinct datasets")
		}
		if engine.LanguageFor(other, 4) != lang {
			t.Fatal("crime seed-7 sessions hold distinct Languages")
		}
	}
	if liveDataset(t, srv, createSession(t, ts.URL, CreateRequest{Dataset: "crime", Seed: 8, Depth: 1})) == ds {
		t.Fatal("a different seed must get its own replica")
	}
}

// TestRestoreReusesHeldReplica: a session handed off and restored by
// its next mine adopts the replica another session still holds.
func TestRestoreReusesHeldReplica(t *testing.T) {
	ts, srv := newRegistryServer(t)
	req := CreateRequest{Dataset: "crime", Seed: 7, Depth: 1}
	a := createSession(t, ts.URL, req)
	b := createSession(t, ts.URL, req)
	held := liveDataset(t, srv, b)
	doJSON(t, "POST", ts.URL+"/api/v1/sessions/"+a+"/mine", nil, http.StatusOK, nil)
	doJSON(t, "POST", ts.URL+"/api/v1/sessions/"+a+"/commit", nil, http.StatusOK, nil)
	doJSON(t, "POST", ts.URL+"/api/v1/sessions/"+a+"/handoff", nil, http.StatusOK, nil)
	doJSON(t, "POST", ts.URL+"/api/v1/sessions/"+a+"/mine", nil, http.StatusOK, nil)
	if liveDataset(t, srv, a) != held {
		t.Fatal("the restored session rebuilt a replica another session holds")
	}
}

// TestReplicaRetiredWithLastSession: once every session on a replica is
// deleted, the collector frees it, which drops its registry entry and
// its cached Language.
func TestReplicaRetiredWithLastSession(t *testing.T) {
	ts, srv := newRegistryServer(t)
	req := CreateRequest{Dataset: "crime", Seed: 71, Depth: 1, NumSplits: 4}
	key := builtinKey{"crime", 71}
	a := createSession(t, ts.URL, req)
	b := createSession(t, ts.URL, req)
	for _, id := range []string{a, b} {
		doJSON(t, "POST", ts.URL+"/api/v1/sessions/"+id+"/mine", nil, http.StatusOK, nil)
	}
	// Only weak references may outlive this call.
	weakRefs := func() (weak.Pointer[dataset.Dataset], weak.Pointer[engine.Language]) {
		ds := liveDataset(t, srv, a)
		return weak.Make(ds), weak.Make(engine.LanguageFor(ds, 4))
	}
	wds, wlang := weakRefs()
	for _, id := range []string{a, b} {
		doJSON(t, "DELETE", ts.URL+"/api/v1/sessions/"+id, nil, http.StatusOK, nil)
	}
	registered := func() bool {
		builtins.Lock()
		defer builtins.Unlock()
		_, ok := builtins.m[key]
		return ok
	}
	// Cleanups run on their own goroutine after the collection that
	// frees the dataset, so poll.
	for deadline := time.Now().Add(10 * time.Second); registered() || wlang.Value() != nil; {
		if time.Now().After(deadline) {
			t.Fatalf("after deleting every session: registered=%v, dataset live=%v, Language live=%v",
				registered(), wds.Value() != nil, wlang.Value() != nil)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// datasetHash digests everything a session reads from its dataset: the
// target bits and names, and each descriptor's name, kind, values and
// levels.
func datasetHash(ds *dataset.Dataset) [sha256.Size]byte {
	h := sha256.New()
	str := func(s string) {
		_ = binary.Write(h, binary.LittleEndian, int64(len(s)))
		h.Write([]byte(s))
	}
	floats := func(xs []float64) {
		_ = binary.Write(h, binary.LittleEndian, int64(len(xs)))
		for _, x := range xs {
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
	}
	str(ds.Name)
	_ = binary.Write(h, binary.LittleEndian, [2]int64{int64(ds.Y.R), int64(ds.Y.C)})
	floats(ds.Y.Data)
	for _, name := range ds.TargetNames {
		str(name)
	}
	for _, c := range ds.Descriptors {
		str(c.Name)
		_ = binary.Write(h, binary.LittleEndian, int64(c.Kind))
		floats(c.Values)
		for _, l := range c.Levels {
			str(l)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestSessionsNeverMutateReplica is the property that makes sharing
// safe: a full session life — mine with a spread preview, commit the
// location and the spread, hand off, restore by mining — leaves the
// registered replica bit-identical.
func TestSessionsNeverMutateReplica(t *testing.T) {
	for _, req := range []CreateRequest{
		{Dataset: "synthetic", Seed: 3, Depth: 2},
		{Dataset: "water", Seed: 3, Depth: 1},
	} {
		t.Run(req.Dataset, func(t *testing.T) {
			ts, srv := newRegistryServer(t)
			id := createSession(t, ts.URL, req)
			ds := liveDataset(t, srv, id)
			before := datasetHash(ds)
			base := ts.URL + "/api/v1/sessions/" + id
			var mine MineResponse
			doJSON(t, "POST", base+"/mine", MineRequest{Spread: true}, http.StatusOK, &mine)
			if mine.Spread == nil {
				t.Fatal("mine returned no spread preview")
			}
			doJSON(t, "POST", base+"/commit", nil, http.StatusOK, nil)
			doJSON(t, "POST", base+"/handoff", nil, http.StatusOK, nil)
			doJSON(t, "POST", base+"/mine", MineRequest{Spread: true}, http.StatusOK, nil)
			if liveDataset(t, srv, id) != ds {
				t.Fatal("the restored session did not adopt the registered replica")
			}
			if datasetHash(ds) != before {
				t.Fatal("a session mutated its shared replica")
			}
		})
	}
}
