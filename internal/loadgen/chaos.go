// Chaos harness: crash-safety validation against a real sisd-server
// subprocess. The scenario SIGKILLs the server mid-commit-stream,
// restarts it over the same store directory, and asserts that every
// session whose create was acknowledged restores and behaves
// byte-identically to a no-crash control run — the end-to-end check
// that the fsync'd, checksummed snapshot pipeline actually delivers
// the durability DESIGN.md §11 promises. Two sacrificial sessions
// additionally probe the corruption paths: a snapshot corrupted while
// the server is down must be quarantined by the startup sweep (the
// session 404s), and one corrupted behind a running server's back must
// surface as a structured snapshot_corrupt error, never a panic.
package loadgen

import (
	"bytes"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/repstore"
	"repro/internal/server"
)

// ChaosConfig parameterizes a chaos run.
type ChaosConfig struct {
	// ServerBin is the sisd-server binary to crash (required).
	ServerBin string `json:"serverBin"`
	// StoreDir is the snapshot directory shared across the crash
	// (required; the caller owns cleanup).
	StoreDir string `json:"storeDir"`
	// Users is the number of concurrent sessions (default 4; two are
	// sacrificed to the corruption probes when Users >= 3).
	Users int `json:"users"`
	// Iterations is the mine/commit loops each session attempts before
	// the kill lands (default 2).
	Iterations int `json:"iterations"`
	// Dataset seeds each session (default "synthetic", seed SeedBase+u).
	Dataset  string `json:"dataset"`
	SeedBase int64  `json:"seedBase,omitempty"`
	// Depth / BeamWidth bound per-mine cost (defaults 2 / 8: the chaos
	// run is about crash timing, not search throughput).
	Depth     int `json:"depth,omitempty"`
	BeamWidth int `json:"beamWidth,omitempty"`
	// KillAfterMS is how long after the first acknowledged commit the
	// SIGKILL lands (default 50ms — inside the commit stream).
	KillAfterMS int `json:"killAfterMs,omitempty"`
	// Replicas >= 2 runs the replica-kill leg: the server persists to a
	// quorum-replicated store over Replicas subdirectories of StoreDir
	// (write quorum = majority), one replica's directory dies
	// mid-commit-stream and stays dead across the SIGKILL/restart (the
	// restore must be byte-identical from the survivors), a second
	// death degrades the server to serve-from-memory, and after healing
	// both, anti-entropy must converge every replica directory to a
	// byte-identical snapshot set. 0 or 1 runs the single-DirStore
	// scenario with its corruption probes.
	Replicas int `json:"replicas,omitempty"`
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Users <= 0 {
		c.Users = 4
	}
	if c.Iterations <= 0 {
		c.Iterations = 2
	}
	c.Dataset = orDefault(c.Dataset, "synthetic")
	c.SeedBase = orDefault(c.SeedBase, 1000)
	c.Depth = orDefault(c.Depth, 2)
	c.BeamWidth = orDefault(c.BeamWidth, 8)
	if c.KillAfterMS <= 0 {
		c.KillAfterMS = 50
	}
	return c
}

// ChaosReport is the JSON artifact of a chaos run.
type ChaosReport struct {
	Config ChaosConfig `json:"config"`
	WallMS float64     `json:"wallMs"`
	// Sessions is how many creates were acknowledged before the kill;
	// CommitsBeforeKill how many commit responses landed.
	Sessions          int `json:"sessions"`
	CommitsBeforeKill int `json:"commitsBeforeKill"`
	// Restored / Identical count compared (non-sacrificial) sessions
	// that came back, and came back byte-identical to the control run.
	Compared  int `json:"compared"`
	Restored  int `json:"restored"`
	Identical int `json:"identical"`
	// SweepProbeOK: a snapshot corrupted while the server was down was
	// quarantined at startup and the session 404s.
	// ServeProbeOK: a snapshot corrupted behind the running server
	// surfaced as a snapshot_corrupt envelope (HTTP 500, no crash).
	SweepProbeOK bool `json:"sweepProbeOk"`
	ServeProbeOK bool `json:"serveProbeOk"`
	// Replica-kill leg results (Replicas >= 2 only).
	// ReplicaKilled is the replica directory broken mid-commit-stream
	// and kept dead through the restart; ReplicaCorrupt the session
	// whose surviving-replica copy was bit-flipped while the server was
	// down (its restore must still be byte-identical — the quorum vote
	// excludes the corrupt copy and read-repair rewrites it).
	ReplicaKilled  string `json:"replicaKilled,omitempty"`
	ReplicaCorrupt string `json:"replicaCorrupt,omitempty"`
	// ReplicaDegradedSeen: with one replica dead, readyz stayed ready
	// and carried the store_replica_degraded warning + per-replica
	// health. QuorumLossOK: with two dead, the server degraded to
	// serve-from-memory per §11 (commit persisted=false, snapshot 503,
	// reads 200) rather than serving stale or torn state. ConvergedOK:
	// after heal, anti-entropy converged all replica dirs to
	// byte-identical snapshot sets and readyz cleared its warnings.
	ReplicaDegradedSeen bool `json:"replicaDegradedSeen,omitempty"`
	QuorumLossOK        bool `json:"quorumLossOk,omitempty"`
	ConvergedOK         bool `json:"convergedOk,omitempty"`
	// Mismatches holds diagnostics for every non-identical session.
	Mismatches []string `json:"mismatches,omitempty"`
	// Errors holds fatal harness errors (empty on a clean run).
	Errors []string `json:"errors,omitempty"`
	OK     bool     `json:"ok"`
}

// corruptSnapshot flips bytes in the middle of a session's snapshot
// file, simulating bit rot the CRC must catch.
func corruptSnapshot(storeDir, id string) error {
	path := filepath.Join(storeDir, id+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) < 16 {
		return fmt.Errorf("chaos: snapshot %s too small to corrupt", id)
	}
	for i := len(raw) / 2; i < len(raw)/2+8; i++ {
		raw[i] ^= 0xff
	}
	return os.WriteFile(path, raw, 0o644)
}

// replicaLayout lays out the replica directories under StoreDir and
// the extra sisd-server flags for the replicated store: the remaining
// -store-dir replicas (the first rides in the positional startServer
// arg), an explicit majority write quorum, and a fast anti-entropy
// sweep so heal convergence fits a test run.
func replicaLayout(cfg ChaosConfig) (dirs, args []string) {
	dirs = make([]string, cfg.Replicas)
	for i := range dirs {
		dirs[i] = filepath.Join(cfg.StoreDir, fmt.Sprintf("r%d", i))
		if i > 0 {
			args = append(args, "-store-dir", dirs[i])
		}
	}
	return dirs, append(args, "-store-quorum", fmt.Sprint(len(dirs)/2+1), "-store-sweep", "250ms")
}

// breakReplicaDir simulates losing a replica's disk from outside the
// process: the directory is renamed aside and a regular file takes its
// place, so every store operation fails (ENOTDIR) even when the server
// runs as root. healReplicaDir reverses it — the disk comes back with
// whatever (stale) contents it had.
func breakReplicaDir(dir string) error {
	if err := os.Rename(dir, dir+".dead"); err != nil {
		return err
	}
	return os.WriteFile(dir, []byte("dead replica"), 0o644)
}

func healReplicaDir(dir string) error {
	if err := os.Remove(dir); err != nil && !os.IsNotExist(err) {
		return err
	}
	return os.Rename(dir+".dead", dir)
}

// replicaDirsConverged reports whether every replica dir holds the
// same *.json files with identical bytes (quarantined *.corrupt and
// torn *.tmp files are ignored — they are not served state).
func replicaDirsConverged(dirs []string) bool {
	var ref map[string][]byte
	for _, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return false
		}
		files := map[string][]byte{}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
				continue
			}
			if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				return false
			}
		}
		if ref == nil {
			ref = files
		} else if !maps.EqualFunc(files, ref, bytes.Equal) {
			return false
		}
	}
	return len(ref) > 0
}

// chaosRun carries one chaos scenario through its steps.
type chaosRun struct {
	cfg    ChaosConfig
	rep    *ChaosReport
	client *http.Client
	// storeDir is the server's first -store-dir: StoreDir itself, or the
	// first replica of a replicated run, whose other replicas (plus the
	// quorum and sweep flags) ride in extraArgs on every start.
	storeDir  string
	dirs      []string
	extraArgs []string
}

// RunChaos executes the crash/restore scenario and returns the report.
// The run is fatal-error-free when rep.OK; callers exit non-zero
// otherwise.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	if cfg.ServerBin == "" || cfg.StoreDir == "" {
		return nil, fmt.Errorf("chaos: ServerBin and StoreDir are required")
	}
	if cfg.Replicas == 2 {
		// At N=2 the majority write quorum is 2, so the mid-stream replica
		// death would immediately cost the quorum and the failure ladder
		// (one dead = warn, two dead = degrade) collapses to one rung.
		return nil, fmt.Errorf("chaos: Replicas must be 0, 1, or >= 3")
	}
	r := &chaosRun{
		cfg:      cfg,
		rep:      &ChaosReport{Config: cfg},
		client:   &http.Client{Timeout: 2 * time.Minute},
		storeDir: cfg.StoreDir,
	}
	if cfg.Replicas >= 2 {
		r.dirs, r.extraArgs = replicaLayout(cfg)
		r.storeDir = r.dirs[0]
	}
	wall := time.Now()
	if err := r.run(); err != nil {
		r.rep.Errors = append(r.rep.Errors, err.Error())
	}
	r.rep.WallMS = float64(time.Since(wall)) / float64(time.Millisecond)
	return r.rep, nil
}

// run is the scenario: commit stream and kill, plant corruption,
// restart and compare, the two corruption probes, the replica ladder.
// A returned error is fatal and leaves rep.OK false.
func (r *chaosRun) run() error {
	sessions, err := r.streamAndKill()
	if err != nil {
		return err
	}
	compared, sweepVictim, serveVictim, err := r.plantCorruption(sessions)
	if err != nil {
		return err
	}
	proc, err := startServer(r.cfg.ServerBin, r.storeDir, r.extraArgs...)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer proc.kill()
	d := driver{client: r.client, base: proc.base}
	rep := r.rep
	rep.Compared = len(compared)
	rep.Restored, rep.Identical, rep.Mismatches, err = checkSurvivors(d, compared, r.cfg.Iterations)
	if err != nil {
		return err
	}
	if sweepVictim != nil {
		// Corrupted while the server was down: the startup sweep must have
		// quarantined it, so the session is gone (404), not a panic or a
		// garbage restore.
		rep.SweepProbeOK = r.probeCorrupt(d, "sweep probe", sweepVictim.id, http.StatusNotFound, "not_found")
	}
	if serveVictim != nil {
		// Corrupt a not-yet-touched session behind the running server:
		// first touch must answer snapshot_corrupt (500) and quarantine
		// the file, never crash.
		if err := corruptSnapshot(r.cfg.StoreDir, serveVictim.id); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("serve probe: %v", err))
		} else {
			rep.ServeProbeOK = r.probeCorrupt(d, "serve probe", serveVictim.id, http.StatusInternalServerError, "snapshot_corrupt")
		}
	}
	if r.dirs != nil {
		if err := r.replicaLadder(d, compared[0]); err != nil {
			return err
		}
	}
	// Graceful teardown exercises the SIGTERM → drain → shutdown path.
	if err := proc.stop(); err != nil {
		rep.Errors = append(rep.Errors, fmt.Sprintf("graceful stop: %v", err))
	}
	rep.OK = len(rep.Errors) == 0 && len(rep.Mismatches) == 0 &&
		rep.Restored == rep.Compared && rep.Identical == rep.Compared &&
		(sweepVictim == nil || rep.SweepProbeOK) &&
		(serveVictim == nil || rep.ServeProbeOK) &&
		(r.dirs == nil || (rep.ReplicaDegradedSeen && rep.QuorumLossOK && rep.ConvergedOK))
	return nil
}

// streamAndKill starts the server and runs the commit stream: each
// user creates a session and loops mine → commit, and the server is
// SIGKILLed KillAfterMS after the first acknowledged commit. A
// replicated run also breaks its last replica at that first commit:
// commits must keep persisting through the surviving quorum, and that
// replica stays dead across the kill and restart.
func (r *chaosRun) streamAndKill() ([]*session, error) {
	proc, err := startServer(r.cfg.ServerBin, r.storeDir, r.extraArgs...)
	if err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	fleet := newFleet(r.cfg.Users, r.cfg.Dataset, r.cfg.SeedBase, r.cfg.Depth, r.cfg.BeamWidth)
	var arm func() error
	if r.dirs != nil {
		arm = func() error {
			victim := r.dirs[len(r.dirs)-1]
			if err := breakReplicaDir(victim); err != nil {
				return fmt.Errorf("break replica: %w", err)
			}
			r.rep.ReplicaKilled = victim
			return nil
		}
	}
	sessions, commits, err := commitStream(driver{client: r.client, base: proc.base}, fleet,
		r.cfg.Iterations, time.Duration(r.cfg.KillAfterMS)*time.Millisecond, arm, proc.kill)
	r.rep.Sessions, r.rep.CommitsBeforeKill = len(sessions), commits
	if err == nil && len(sessions) == 0 {
		err = fmt.Errorf("no session created before the kill")
	}
	return sessions, err
}

// plantCorruption damages snapshots while the server is down. A
// single-store run with at least three sessions sacrifices the last two
// to the corruption probes and compares the rest: the sweep victim is
// corrupted now, the serve victim after the restart. A replicated run
// instead bit-flips the first session's copy on a surviving replica,
// which must be transparent: the quorum read excludes the corrupt copy
// from the freshness vote and read-repairs it, so that session stays
// compared and must still restore byte-identical. (If the kill tore
// that replica's write and no file exists, the flip is skipped; the
// byte-identity checks still cover the quorum path.)
func (r *chaosRun) plantCorruption(sessions []*session) (compared []*session, sweepVictim, serveVictim *session, err error) {
	if r.dirs != nil {
		if err := corruptSnapshot(r.storeDir, sessions[0].id); err == nil {
			r.rep.ReplicaCorrupt = sessions[0].id
		} else if !os.IsNotExist(err) {
			return nil, nil, nil, fmt.Errorf("replica corruption plant: %w", err)
		}
		return sessions, nil, nil, nil
	}
	if len(sessions) < 3 {
		return sessions, nil, nil, nil
	}
	n := len(sessions)
	sweepVictim, serveVictim = sessions[n-1], sessions[n-2]
	if err := corruptSnapshot(r.cfg.StoreDir, sweepVictim.id); err != nil {
		return nil, nil, nil, fmt.Errorf("sweep probe: %w", err)
	}
	return sessions[:n-2], sweepVictim, serveVictim, nil
}

// probeCorrupt reads the history of a session whose snapshot was
// corrupted and reports whether the server answered wantStatus with
// wantCode and quarantined the file.
func (r *chaosRun) probeCorrupt(d driver, name, id string, wantStatus int, wantCode string) bool {
	code, errCode, _ := d.call("GET", "/sessions/"+id+"/history", nil, nil)
	ok := code == wantStatus && errCode == wantCode && quarantined(r.cfg.StoreDir, id)
	if !ok {
		r.rep.Errors = append(r.rep.Errors, fmt.Sprintf("%s: HTTP %d code %q (want %d %s + quarantine)",
			name, code, errCode, wantStatus, wantCode))
	}
	return ok
}

// replicaLadder walks the failure ladder on the probe session, from one
// dead replica (ready + warning) through quorum loss (serve-from-memory
// per DESIGN.md §11) to heal (anti-entropy converges every replica
// directory byte-identically).
func (r *chaosRun) replicaLadder(d driver, probe *session) error {
	rep := r.rep
	// Rung 1: one replica dead, quorum intact. Two mine → commit rounds
	// must still persist (each commit costs the dead replica a fence-Get
	// and a Put failure, tripping its breaker past the threshold), after
	// which readyz stays ready but warns store_replica_degraded and
	// reports the tripped replica.
	persisted := loopHooks{committed: func(c commitAnswer) error {
		if !c.Persisted {
			return fmt.Errorf("commit not persisted (%+v): quorum should survive one death", c)
		}
		return nil
	}}
	if err := d.loop(probe, 2, server.MineRequest{}, persisted); err != nil {
		rep.Errors = append(rep.Errors, fmt.Sprintf("one replica dead: %v", err))
	}
	var ready server.Readiness
	if code, _, err := d.call("GET", "/readyz", nil, &ready); err != nil || code != http.StatusOK {
		rep.Errors = append(rep.Errors, fmt.Sprintf("readyz with one replica dead: HTTP %d: %v", code, err))
	} else {
		unhealthy := 0
		for _, rp := range ready.Replicas {
			if rp.State != repstore.StateHealthy {
				unhealthy++
			}
		}
		rep.ReplicaDegradedSeen = ready.Ready && slices.Contains(ready.Warnings, server.ReasonReplicaDegraded) && unhealthy >= 1
		if !rep.ReplicaDegradedSeen {
			rep.Errors = append(rep.Errors,
				fmt.Sprintf("readyz with one replica dead: ready=%v warnings=%v unhealthy=%d (want ready + %s warning + >=1 unhealthy replica)",
					ready.Ready, ready.Warnings, unhealthy, server.ReasonReplicaDegraded))
		}
	}

	// Rung 2: a second replica dies and the write quorum is gone.
	// Commits must degrade to serve-from-memory (persisted=false),
	// explicit snapshot persistence 503s with store_degraded, reads keep
	// answering from memory, and readyz goes 503.
	if err := breakReplicaDir(r.dirs[1]); err != nil {
		return fmt.Errorf("break second replica: %w", err)
	}
	if err := quorumLoss(d, probe); err != nil {
		rep.Errors = append(rep.Errors, err.Error())
	} else {
		rep.QuorumLossOK = true
	}

	// Rung 3: heal both dead replicas. The degraded store recovers on the
	// next persistence attempt, then the anti-entropy sweep (forced fast
	// via -store-sweep) plus breaker reintegration must converge every
	// replica directory to a byte-identical snapshot set and clear the
	// readyz warning.
	for _, dir := range []string{r.dirs[1], r.dirs[len(r.dirs)-1]} {
		if err := healReplicaDir(dir); err != nil {
			return fmt.Errorf("heal replica: %w", err)
		}
	}
	recovered := poll(30*time.Second, 200*time.Millisecond, func() bool {
		code, _, _ := d.call("POST", "/sessions/"+probe.id+"/snapshot", nil, nil)
		return code == http.StatusOK
	})
	if !recovered {
		rep.Errors = append(rep.Errors, "store did not recover within 30s of healing the replicas")
		return nil
	}
	rep.ConvergedOK = poll(90*time.Second, 500*time.Millisecond, func() bool {
		var rd server.Readiness
		code, _, _ := d.call("GET", "/readyz", nil, &rd)
		return code == http.StatusOK && len(rd.Warnings) == 0 && replicaDirsConverged(r.dirs)
	})
	if !rep.ConvergedOK {
		rep.Errors = append(rep.Errors, "replicas did not converge byte-identically within 90s of healing")
	}
	return nil
}

// quorumLoss checks rung 2 of the replica ladder on the probe session.
func quorumLoss(d driver, probe *session) error {
	degraded := loopHooks{committed: func(c commitAnswer) error {
		if c.Persisted || c.Persistence != "degraded" {
			return fmt.Errorf("commit = %+v (want persisted=false persistence=degraded)", c)
		}
		return nil
	}}
	if err := d.loop(probe, 1, server.MineRequest{}, degraded); err != nil {
		return fmt.Errorf("mine → commit under quorum loss: %w", err)
	}
	if code, errCode, _ := d.call("POST", "/sessions/"+probe.id+"/snapshot", nil, nil); code != http.StatusServiceUnavailable || errCode != "store_degraded" {
		return fmt.Errorf("snapshot under quorum loss: HTTP %d code %q (want 503 store_degraded)", code, errCode)
	}
	if code, _, err := d.call("GET", "/sessions/"+probe.id+"/history", nil, nil); code != http.StatusOK {
		return fmt.Errorf("history under quorum loss: HTTP %d: %v (reads must keep serving from memory)", code, err)
	}
	if code, _, _ := d.call("GET", "/readyz", nil, nil); code != http.StatusServiceUnavailable {
		return fmt.Errorf("readyz under quorum loss: HTTP %d (want 503)", code)
	}
	return nil
}

// poll calls ok every interval until it reports true or timeout passes.
func poll(timeout, interval time.Duration, ok func() bool) bool {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(interval) {
		if ok() {
			return true
		}
	}
	return false
}

// quarantined reports whether the session's snapshot was moved aside
// as <id>.json.corrupt (and the live file is gone).
func quarantined(storeDir, id string) bool {
	if _, err := os.Stat(filepath.Join(storeDir, id+".json.corrupt")); err != nil {
		return false
	}
	_, err := os.Stat(filepath.Join(storeDir, id+".json"))
	return os.IsNotExist(err)
}
