package loadgen

import "testing"

// TestClusterSmoke runs the full scale-out scenario end-to-end with
// real shard subprocesses: baseline leg, router leg, router-overhead
// probe, and the shard-SIGKILL chaos leg (affected sessions must resume
// on survivors byte-identically to the no-crash control). Throughput
// scaling is hardware-dependent, so this test only asserts the
// correctness side plus sane report shape; the ≥2x bar is checked by
// the CI cluster job on a multi-core runner.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke builds a real server binary and spawns shards")
	}
	bin := sisdServerBin(t)
	rep, err := RunCluster(ClusterConfig{
		ServerBin:  bin,
		StoreDir:   t.TempDir(),
		ShardCount: 3,
		Users:      6,
		Iterations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("cluster run not ok: errors=%v chaos=%+v", rep.Errors, rep.Chaos)
	}
	if rep.Single == nil || rep.Cluster == nil {
		t.Fatal("report is missing a measured leg")
	}
	if rep.Single.Jobs == 0 || rep.Cluster.Jobs == 0 {
		t.Fatalf("no jobs completed: single=%d cluster=%d", rep.Single.Jobs, rep.Cluster.Jobs)
	}
	if rep.RoutedP50MS <= 0 || rep.DirectP50MS <= 0 {
		t.Fatalf("overhead probe did not run: direct=%.3f routed=%.3f", rep.DirectP50MS, rep.RoutedP50MS)
	}
	if rep.Chaos == nil {
		t.Fatal("chaos leg missing")
	}
	if rep.Chaos.Affected == 0 || rep.Chaos.Identical != rep.Chaos.Affected {
		t.Fatalf("chaos leg: identical %d/%d affected (killed %s): %v",
			rep.Chaos.Identical, rep.Chaos.Affected, rep.Chaos.KilledShard, rep.Chaos.Errors)
	}
}
