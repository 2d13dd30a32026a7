// Cluster harness: the scale-out counterpart of the single-process load
// run. It measures the same workload twice — one sisd-server subprocess
// alone, then a consistent-hash router fronting N shard subprocesses
// over a shared store — and reports the throughput ratio, the router's
// added latency, and (optionally) a chaos leg that SIGKILLs a shard
// mid-commit-stream and requires every affected session to resume on a
// surviving shard with mine results byte-identical to a no-crash
// control run. This is the acceptance artifact for DESIGN.md §12: on a
// multi-core runner the cluster leg should sustain near-linear jobs/sec
// scaling at equal-or-better p95.
package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// ClusterConfig parameterizes a cluster run.
type ClusterConfig struct {
	// ServerBin is the sisd-server binary to spawn shards from (required).
	ServerBin string `json:"serverBin"`
	// StoreDir is the harness scratch root (required; the single-shard
	// baseline and the cluster get separate subdirectories).
	StoreDir string `json:"storeDir"`
	// ShardCount is the cluster size (default 3).
	ShardCount int `json:"shards"`
	// Users / Iterations / Dataset / SeedBase / Depth / BeamWidth have
	// the load-run meanings (defaults 16 / 2 / synthetic / 1000 / 2 / 8:
	// cheap mines keep the comparison dominated by concurrency, not one
	// giant search).
	Users      int    `json:"users"`
	Iterations int    `json:"iterations"`
	Dataset    string `json:"dataset"`
	SeedBase   int64  `json:"seedBase,omitempty"`
	Depth      int    `json:"depth,omitempty"`
	BeamWidth  int    `json:"beamWidth,omitempty"`
	// Workers caps each shard's mine pool (0 = server default). The
	// single-shard baseline uses the same value, so the comparison
	// isolates process count, not pool size.
	Workers int `json:"workers,omitempty"`
	// SkipChaos drops the shard-kill leg (it is on by default — the
	// resume-on-surviving-shard property is half the point).
	SkipChaos bool `json:"skipChaos,omitempty"`
	// OverheadProbes is the sample count for the router-overhead
	// comparison (default 300).
	OverheadProbes int `json:"overheadProbes,omitempty"`
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.ShardCount <= 0 {
		c.ShardCount = 3
	}
	if c.Users <= 0 {
		c.Users = 16
	}
	if c.Iterations <= 0 {
		c.Iterations = 2
	}
	c.Dataset = orDefault(c.Dataset, "synthetic")
	c.SeedBase = orDefault(c.SeedBase, 1000)
	c.Depth = orDefault(c.Depth, 2)
	c.BeamWidth = orDefault(c.BeamWidth, 8)
	if c.OverheadProbes <= 0 {
		c.OverheadProbes = 300
	}
	return c
}

// ClusterChaosReport is the shard-kill leg of a cluster run.
type ClusterChaosReport struct {
	// KilledShard is the shard SIGKILLed mid-commit-stream.
	KilledShard string `json:"killedShard"`
	// Sessions/ CommitsBeforeKill mirror the single-process chaos run.
	Sessions          int `json:"sessions"`
	CommitsBeforeKill int `json:"commitsBeforeKill"`
	// Affected counts sessions homed on the killed shard; Resumed how
	// many answered on a surviving shard afterwards; Identical how many
	// then mined, and exported history and model, byte-identically to
	// the no-crash control replay.
	Affected  int      `json:"affected"`
	Resumed   int      `json:"resumed"`
	Identical int      `json:"identical"`
	Errors    []string `json:"errors,omitempty"`
	OK        bool     `json:"ok"`
}

// ClusterReport is the JSON artifact of a cluster run.
type ClusterReport struct {
	Config ClusterConfig `json:"config"`
	WallMS float64       `json:"wallMs"`
	// Single and Cluster are the two measured legs.
	Single  *Report `json:"single"`
	Cluster *Report `json:"cluster"`
	// Speedup is cluster jobs/sec over single jobs/sec; MineP95 carries
	// the latency side of the acceptance bar.
	Speedup       float64 `json:"speedup"`
	SingleMineP95 float64 `json:"singleMineP95Ms"`
	ClusterMine95 float64 `json:"clusterMineP95Ms"`
	// Router overhead: p50 of a cheap session read via the router minus
	// the same read direct to the owning shard, same process, same
	// client, interleaved samples.
	DirectP50MS   float64 `json:"directP50Ms"`
	RoutedP50MS   float64 `json:"routedP50Ms"`
	OverheadP50MS float64 `json:"overheadP50Ms"`
	// Chaos is the shard-kill leg (nil when skipped).
	Chaos  *ClusterChaosReport `json:"chaos,omitempty"`
	Errors []string            `json:"errors,omitempty"`
	OK     bool                `json:"ok"`
}

// clusterShard pairs a shard subprocess with its identity.
type clusterShard struct {
	id   string
	proc *serverProc
}

// RunCluster executes the full scenario: baseline, cluster, overhead
// probe, chaos leg. Fatal harness errors land in rep.Errors; rep.OK
// summarizes the correctness-side checks (the throughput acceptance
// ratio is judged by the caller/CI, because it is hardware-dependent —
// a single-core machine cannot scale by process count).
func RunCluster(cfg ClusterConfig) (*ClusterReport, error) {
	cfg = cfg.withDefaults()
	if cfg.ServerBin == "" || cfg.StoreDir == "" {
		return nil, fmt.Errorf("cluster: ServerBin and StoreDir are required")
	}
	rep := &ClusterReport{Config: cfg}
	wall := time.Now()
	defer func() { rep.WallMS = float64(time.Since(wall)) / float64(time.Millisecond) }()
	fail := func(format string, args ...any) (*ClusterReport, error) {
		rep.Errors = append(rep.Errors, fmt.Sprintf(format, args...))
		return rep, nil
	}

	// One pooled client for every leg: identical client-side connection
	// behavior for baseline and cluster numbers.
	transport := &http.Transport{
		MaxIdleConns:        cfg.Users * 4,
		MaxIdleConnsPerHost: cfg.Users * 2,
		IdleConnTimeout:     90 * time.Second,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 2 * time.Minute}
	load := Config{
		Users:      cfg.Users,
		Iterations: cfg.Iterations,
		Dataset:    cfg.Dataset,
		SeedBase:   cfg.SeedBase,
		Depth:      cfg.Depth,
		BeamWidth:  cfg.BeamWidth,
		Client:     client,
	}

	// startShard starts one shard with its own -shard-id over
	// StoreDir/dir; the baseline passes the same -workers as the shards,
	// so the comparison isolates process count, not pool size.
	startShard := func(dir, id string) (*serverProc, error) {
		dir = filepath.Join(cfg.StoreDir, dir)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		args := []string{"-shard-id", id}
		if cfg.Workers > 0 {
			args = append(args, "-workers", fmt.Sprint(cfg.Workers))
		}
		return startServer(cfg.ServerBin, dir, args...)
	}

	// Leg 1: single shard, same binary, own store.
	single, err := startShard("single", "single")
	if err != nil {
		return fail("start single shard: %v", err)
	}
	load.BaseURL = single.base
	rep.Single, err = Run(load)
	single.kill()
	if err != nil {
		return fail("single-shard leg: %v", err)
	}

	// Leg 2: N shards over one shared store behind the router.
	// The shards are real processes; the router runs in the harness
	// process, so the chaos leg can force a deterministic probe sweep
	// instead of sleeping through the probe interval.
	shards := make([]*clusterShard, cfg.ShardCount)
	routes := make([]cluster.Shard, cfg.ShardCount)
	defer func() {
		for _, sh := range shards {
			if sh != nil {
				sh.proc.kill()
			}
		}
	}()
	for i := range shards {
		id := fmt.Sprintf("shard-%d", i)
		proc, err := startShard("cluster", id)
		if err != nil {
			return fail("start %s: %v", id, err)
		}
		shards[i] = &clusterShard{id: id, proc: proc}
		routes[i] = cluster.Shard{ID: id, URL: proc.base}
	}
	rt, err := cluster.NewRouter(cluster.Options{Shards: routes, ProbeInterval: 250 * time.Millisecond})
	if err != nil {
		return fail("router: %v", err)
	}
	rt.Start()
	defer rt.Close()
	front, routerBase, err := serveLocal(rt.Handler())
	if err != nil {
		return fail("router: %v", err)
	}
	defer front.Close()

	load.BaseURL = routerBase
	load.SeedBase = cfg.SeedBase + 10_000 // fresh sessions, same workload shape
	rep.Cluster, err = Run(load)
	if err != nil {
		return fail("cluster leg: %v", err)
	}
	if rep.Single.JobsPerSec > 0 {
		rep.Speedup = rep.Cluster.JobsPerSec / rep.Single.JobsPerSec
	}
	rep.SingleMineP95 = rep.Single.Ops["mine"].P95MS
	rep.ClusterMine95 = rep.Cluster.Ops["mine"].P95MS

	if err := rep.probeOverhead(client, routerBase, shards); err != nil {
		return fail("overhead probe: %v", err)
	}

	if !cfg.SkipChaos {
		rep.Chaos = runClusterChaos(cfg, client, rt, routerBase, shards)
	}

	rep.OK = len(rep.Errors) == 0 &&
		rep.Single.FailedJobs == 0 && rep.Cluster.FailedJobs == 0 &&
		(rep.Chaos == nil || rep.Chaos.OK)
	return rep, nil
}

// probeOverhead measures what the router adds to one request: the same
// cheap session read sampled direct-to-shard and via the router,
// interleaved (so machine noise hits both series equally), compared at
// the median.
func (rep *ClusterReport) probeOverhead(client *http.Client, routerBase string, shards []*clusterShard) error {
	cfg := rep.Config
	s := newFleet(1, cfg.Dataset, 1, cfg.Depth, cfg.BeamWidth)[0]
	if err := (driver{client: client, base: routerBase}).loop(s, 0, server.MineRequest{}, loopHooks{}); err != nil { // create only
		return err
	}
	var ownerBase string
	for _, sh := range shards {
		if sh.id == s.shard {
			ownerBase = sh.proc.base
		}
	}
	if ownerBase == "" {
		return fmt.Errorf("probe session %s landed on unknown shard %q", s.id, s.shard)
	}
	path := "/sessions/" + s.id + "/history"
	probe := func(base string) (float64, error) {
		start := time.Now()
		if _, _, err := (driver{client: client, base: base}).call("GET", path, nil, nil); err != nil {
			return 0, err
		}
		return float64(time.Since(start)) / float64(time.Millisecond), nil
	}
	// The first 8 rounds only warm both connection pools.
	var direct, routed []float64
	for i := -8; i < rep.Config.OverheadProbes; i++ {
		d, err := probe(ownerBase)
		if err != nil {
			return err
		}
		r, err := probe(routerBase)
		if err != nil {
			return err
		}
		if i >= 0 {
			direct = append(direct, d)
			routed = append(routed, r)
		}
	}
	sort.Float64s(direct)
	sort.Float64s(routed)
	rep.DirectP50MS = percentile(direct, 0.50)
	rep.RoutedP50MS = percentile(routed, 0.50)
	rep.OverheadP50MS = rep.RoutedP50MS - rep.DirectP50MS
	return nil
}

// runClusterChaos is the shard-kill leg: a fleet of six sessions is
// created through the router, the shard that owns the most of them is
// SIGKILLed in the middle of their commit stream, the router is forced
// through a probe sweep, and every affected session must resume on a
// surviving shard and pass the same survivor check as the
// single-process chaos run.
func runClusterChaos(cfg ClusterConfig, client *http.Client, rt *cluster.Router, routerBase string, shards []*clusterShard) *ClusterChaosReport {
	rep := &ClusterChaosReport{}
	failf := func(format string, args ...any) *ClusterChaosReport {
		rep.Errors = append(rep.Errors, fmt.Sprintf(format, args...))
		return rep
	}
	d := driver{client: client, base: routerBase}
	// Create the fleet through the router, recording each session's home
	// shard from the placement the create response carries.
	fleet := newFleet(6, cfg.Dataset, cfg.SeedBase+20_000, cfg.Depth, cfg.BeamWidth)
	byShard := map[string]int{}
	for _, s := range fleet {
		if err := d.loop(s, 0, server.MineRequest{}, loopHooks{}); err != nil { // create only
			return failf("create: %v", err)
		}
		byShard[s.shard]++
	}
	rep.Sessions = len(fleet)
	// Kill the shard owning the most sessions — maximum blast radius.
	var killed *clusterShard
	for _, sh := range shards {
		if killed == nil || byShard[sh.id] > byShard[killed.id] {
			killed = sh
		}
	}
	rep.KilledShard = killed.id
	if byShard[killed.id] == 0 {
		return failf("no session landed on any shard; placement broken")
	}
	_, commits, err := commitStream(d, fleet, cfg.Iterations, 50*time.Millisecond, nil, killed.proc.kill)
	rep.CommitsBeforeKill = commits
	if err != nil {
		return failf("%v", err)
	}

	// Force the router to notice the corpse instead of sleeping through
	// the probe interval; one sweep is the deterministic equivalent.
	rt.ProbeOnce(context.Background())

	var affected []*session
	for _, s := range fleet {
		if s.shard == killed.id {
			affected = append(affected, s)
		}
	}
	rep.Affected = len(affected)
	resumed, identical, mismatches, err := checkSurvivors(d, affected, cfg.Iterations)
	if err != nil {
		return failf("%v", err)
	}
	rep.Resumed, rep.Identical = resumed, identical
	rep.Errors = append(rep.Errors, mismatches...)
	rep.OK = len(rep.Errors) == 0 && rep.Affected > 0 &&
		rep.Resumed == rep.Affected && rep.Identical == rep.Affected
	return rep
}
