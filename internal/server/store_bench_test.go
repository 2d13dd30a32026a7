package server

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/repstore"
)

// benchDirStorePut measures the durable snapshot write path. The
// noSync variant isolates what the fsync discipline (file sync before
// rename, directory sync after) costs per Put — the price of
// crash-safety over a bare atomic rename.
func benchDirStorePut(b *testing.B, noSync bool) {
	store, err := NewDirStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	store.noSync = noSync
	// A representative model payload (~10KB of matrix coefficients).
	nums := make([]float64, 1024)
	for i := range nums {
		nums[i] = 1.0 / float64(i+1)
	}
	model, err := json.Marshal(map[string]any{"weights": nums})
	if err != nil {
		b.Fatal(err)
	}
	snap := &Snapshot{
		ID:      "s0001",
		Create:  CreateRequest{Dataset: "synthetic", Seed: 1},
		Model:   json.RawMessage(model),
		History: []PatternJSON{{Kind: "location", Intention: "x1<=0.5"}},
		SavedAt: time.Unix(1, 0),
	}
	snap.Seal()
	// Warm-up Put: the first write pays one-time lazy initialization
	// (and creates the file), which would dominate a single-iteration
	// CI run; the gate is about the steady-state overwrite path.
	if err := store.Put(snap); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Put(snap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDirStorePut(b *testing.B)       { benchDirStorePut(b, false) }
func BenchmarkDirStorePutNoSync(b *testing.B) { benchDirStorePut(b, true) }

// benchSnapshot mirrors benchDirStorePut's ~10KB payload so the
// replicated numbers read directly against the single-DirStore ones:
// the delta is the replication tax (N=3 concurrent child writes + the
// quorum bookkeeping).
func benchSnapshot(b *testing.B) *Snapshot {
	nums := make([]float64, 1024)
	for i := range nums {
		nums[i] = 1.0 / float64(i+1)
	}
	model, err := json.Marshal(map[string]any{"weights": nums})
	if err != nil {
		b.Fatal(err)
	}
	snap := &Snapshot{
		ID:      "s0001",
		Create:  CreateRequest{Dataset: "synthetic", Seed: 1},
		Model:   json.RawMessage(model),
		History: []PatternJSON{{Kind: "location", Intention: "x1<=0.5"}},
		SavedAt: time.Unix(1, 0),
	}
	snap.Seal()
	return snap
}

func newBenchReplicated(b *testing.B) *repstore.Replicated[Snapshot] {
	b.Helper()
	root := b.TempDir()
	dirs := []string{
		filepath.Join(root, "r0"),
		filepath.Join(root, "r1"),
		filepath.Join(root, "r2"),
	}
	rep, err := NewReplicatedDirStore(dirs, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rep.Close)
	return rep
}

// BenchmarkReplicatedPut: quorum write across 3 DirStore replicas
// (W=2), fsync discipline on. Compare with BenchmarkDirStorePut.
func BenchmarkReplicatedPut(b *testing.B) {
	rep := newBenchReplicated(b)
	snap := benchSnapshot(b)
	if err := rep.Put(snap); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rep.Put(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicatedGet: quorum read (all replicas answer, freshness
// vote, no repair needed) across 3 DirStore replicas.
func BenchmarkReplicatedGet(b *testing.B) {
	rep := newBenchReplicated(b)
	snap := benchSnapshot(b)
	if err := rep.Put(snap); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rep.Get(snap.ID); err != nil {
			b.Fatal(err)
		}
	}
}
