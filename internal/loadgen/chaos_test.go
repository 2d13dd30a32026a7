package loadgen

import "testing"

// TestChaosSmoke runs the full crash/restore scenario end-to-end: it
// builds the real sisd-server binary, SIGKILLs it mid-commit-stream,
// restarts it over the same store directory, and requires every
// compared session to restore byte-identically plus both corruption
// probes to pass. This is the acceptance gate for DESIGN.md §11.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos smoke builds and crashes a real server binary")
	}
	bin := sisdServerBin(t)
	rep, err := RunChaos(ChaosConfig{
		ServerBin:  bin,
		StoreDir:   t.TempDir(),
		Users:      3, // one compared session + two corruption-probe sacrifices
		Iterations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("chaos run not ok: mismatches=%v errors=%v report=%+v",
			rep.Mismatches, rep.Errors, rep)
	}
	if rep.Compared == 0 || rep.Identical != rep.Compared {
		t.Fatalf("identical %d/%d compared", rep.Identical, rep.Compared)
	}
	if !rep.SweepProbeOK || !rep.ServeProbeOK {
		t.Fatalf("corruption probes: sweep=%v serve=%v", rep.SweepProbeOK, rep.ServeProbeOK)
	}
}

// TestChaosReplicaSmoke runs the replica-kill leg end-to-end against a
// real server over a 3-replica quorum store: one replica dies
// mid-commit-stream and stays dead through a SIGKILL/restart (restores
// must be byte-identical from the survivors), a second death degrades
// the server to serve-from-memory, and after healing both, anti-entropy
// must converge every replica directory byte-identically. This is the
// acceptance gate for DESIGN.md §13.
func TestChaosReplicaSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("replica chaos smoke builds and crashes a real server binary")
	}
	bin := sisdServerBin(t)
	rep, err := RunChaos(ChaosConfig{
		ServerBin:  bin,
		StoreDir:   t.TempDir(),
		Users:      2,
		Iterations: 1,
		Replicas:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("replica chaos run not ok: mismatches=%v errors=%v report=%+v",
			rep.Mismatches, rep.Errors, rep)
	}
	if rep.Compared == 0 || rep.Identical != rep.Compared {
		t.Fatalf("identical %d/%d compared", rep.Identical, rep.Compared)
	}
	if rep.ReplicaKilled == "" {
		t.Fatal("no replica was killed")
	}
	if !rep.ReplicaDegradedSeen || !rep.QuorumLossOK || !rep.ConvergedOK {
		t.Fatalf("ladder probes: degradedSeen=%v quorumLoss=%v converged=%v",
			rep.ReplicaDegradedSeen, rep.QuorumLossOK, rep.ConvergedOK)
	}
}
