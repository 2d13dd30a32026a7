// Command bench is the repository benchmark. It drives the interactive
// mining loop (create → [mine → commit]… → delete) through the real
// /api/v1 stack — in-process servers, and a cluster.Router for the
// sharded workload, reached over loopback HTTP — with closed-loop users,
// prints every end-to-end metric by name with its unit, and checks the
// server's results against a serial library replay. With -trace 1 it
// attributes request time to the repository's layers instead.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -workload explore-crime -seed 1 [-seconds 30] [-trace 0|1]
//	bash bench/run.sh -all -seed 1
//	bash bench/run.sh compare -a DIR_A -b DIR_B
//
// The last line of a run's output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}, with the end-to-end metrics
// BENCHMARK.json lists (or, with -trace 1, its per-layer metrics). Every
// run also writes its full result under -out, which compare reads.
// See README.md for the workloads, the metrics and what each measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// users is the number of closed-loop users, each with one keep-alive
	// connection and no think time: an analyst waits for the pattern
	// before committing it. Two matches the two cores the benchmark was
	// sized on.
	users = 2
	// setups is how many times a run sets the system up; setup_s is the
	// median.
	setups = 10
	// rssEvery is how often the window samples the resident set.
	rssEvery = 50 * time.Millisecond
	// specFile defines the workloads' metric lists and bounds.
	specFile = "BENCHMARK.json"
)

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	dir      string // scratch space: stores of the run, removed at exit
	out      string // run results and traces
	spec     string // path of BENCHMARK.json
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	all := fs.Bool("all", false, "run every workload, each in a fresh process")
	seed := fs.Int64("seed", 1, "seed for every session's inputs and the queue")
	seconds := fs.Int("seconds", 0, "length of the timed window (0: BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build/out", "directory for run results and traces")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	if *all {
		os.Exit(runAll("-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds),
			"-trace", fmt.Sprint(*trace), "-out", *out))
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "bench: -workload, -all or the compare subcommand is required")
		fs.Usage()
		os.Exit(2)
	}
	cfg := config{
		workload: *workload, seed: *seed, trace: *trace == 1,
		window: time.Duration(*seconds) * time.Second,
		dir:    ".bench_build", out: *out, spec: specFile,
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// runAll runs this program once per workload with the given flags, so
// that every workload starts in a fresh process.
func runAll(flags ...string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, flags...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// metric is one reported number. N is the sample count behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is what a run writes to -out.
type result struct {
	Kind      string             `json:"kind"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Meta      map[string]any     `json:"meta"`
	Counts    map[string]int     `json:"counts"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Warnings  []string           `json:"warnings,omitempty"`
	StartedAt time.Time          `json:"startedAt"`
	Phases    map[string]float64 `json:"phaseSeconds"` // set-up, window, oracle, total
}

const resultKind = "sisd-bench-run"

func run(cfg config, stdout io.Writer) (*result, error) {
	began := time.Now()
	spec, err := loadSpec(cfg.spec)
	if err != nil {
		return nil, err
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.window <= 0 {
		cfg.window = time.Duration(spec.RunSeconds) * time.Second
	}
	if err := os.MkdirAll(filepath.Join(cfg.dir, "runs"), 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(filepath.Join(cfg.dir, "runs"), w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	res := &result{
		Kind: resultKind, Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
		Meta: runMeta(cfg, runDir), Counts: map[string]int{}, Metrics: map[string]metric{},
		StartedAt: began, Phases: map[string]float64{},
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// Half the set-ups run before the window, the last of them serving it,
	// and half after it. Back to back they would all fall within a second
	// or two, and the machine's speed drifts over seconds; spread across
	// the window, their median averages that drift.
	var setupS []float64
	timedSetUp := func(k int) (*deployment, []*client, error) {
		d, clients, dur, err := setUp(w, filepath.Join(runDir, fmt.Sprintf("setup-%d", k)), tr)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, dur.Seconds())
		return d, clients, nil
	}
	var d *deployment
	var clients []*client
	for k := range setups / 2 {
		if d != nil {
			shutDown(d, clients)
		}
		if d, clients, err = timedSetUp(k); err != nil {
			return nil, err
		}
	}

	l := &load{w: w, seed: cfg.seed, tr: tr, shards: d.shards, recs: make([]*sessionRec, w.oracle)}
	start := time.Now()
	res.Phases["setup"] = start.Sub(began).Seconds()
	l.deadline = start.Add(cfg.window)
	rss := sampleRSS(rssEvery)
	allocated := heapAllocated()
	us := l.run(clients)
	window := time.Since(start)
	res.Phases["window"] = window.Seconds()
	allocated = heapAllocated() - allocated
	rssMB, rssErr := rss.stop()
	shutDown(d, clients)
	if rssErr != nil {
		return nil, rssErr
	}
	after := time.Now()
	for k := setups / 2; k < setups; k++ {
		d, clients, err := timedSetUp(k)
		if err != nil {
			return nil, err
		}
		shutDown(d, clients)
	}
	res.Phases["setup"] += time.Since(after).Seconds()

	lat := map[string][]float64{}
	for _, u := range us {
		for op, xs := range u.lat {
			lat[op] = append(lat[op], xs...)
		}
		res.Attempted += u.attempted
		res.Failed += u.failed
		res.Errors = append(res.Errors, u.errs...)
		res.Counts["sessions"] += u.sessions
		res.Counts["iterations"] += u.iterations
		res.Counts["handoff_retries"] += u.handoffRetries
	}
	for _, op := range []string{"create", "mine", "commit", "handoff", "delete"} {
		res.Counts[op+"s"] = len(lat[op])
	}

	oracleStart := time.Now()
	rp := replayAll(w, l.recs)
	res.Phases["oracle"] = time.Since(oracleStart).Seconds()
	res.Counts["oracle_sessions"] = rp.sessions
	res.Counts["oracle_steps"] = rp.steps
	res.Counts["oracle_mismatches"] = rp.badSteps
	res.Failed += rp.badSteps
	res.Correct = rp.steps > 0 && rp.badSteps == 0
	if len(rp.mismatches) > 0 {
		res.Errors = append(res.Errors, rp.mismatches[:min(5, len(rp.mismatches))]...)
	}

	put := func(name string, v float64, n int) { res.Metrics[name] = metric{Value: v, Unit: unitOf(name), N: n} }
	pct := func(name, op string, q float64) {
		if xs := lat[op]; len(xs) > 0 {
			put(name, quantile(xs, q), len(xs))
		}
	}
	put("iters_per_s", float64(res.Counts["iterations"])/window.Seconds(), res.Counts["iterations"])
	pct("mine_p50_ms", "mine", 0.5)
	pct("mine_p90_ms", "mine", 0.9)
	pct("commit_p50_ms", "commit", 0.5)
	pct("commit_p90_ms", "commit", 0.9)
	pct("create_p50_ms", "create", 0.5)
	pct("resume_p50_ms", "resume", 0.5)
	if res.Attempted > 0 {
		put("error_rate", float64(res.Failed)/float64(res.Attempted), res.Attempted)
	}
	put("setup_s", median(setupS), len(setupS))
	put("rss_p90_mb", quantile(rssMB, 0.9), len(rssMB))
	if n := res.Counts["iterations"]; n > 0 {
		put("alloc_per_iter_kb", float64(allocated)/1024/float64(n), n)
	}
	if cfg.trace {
		res.Warnings = layerMetrics(tr, rp, lat, put)
	}

	res.Phases["total"] = time.Since(began).Seconds()
	if err := writeResult(cfg, res, tr); err != nil {
		return nil, err
	}
	report(stdout, cfg, res)
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	line, err := resultLine(res, want)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, line)
	return res, nil
}

func shutDown(d *deployment, clients []*client) {
	for _, c := range clients {
		c.close()
	}
	d.close()
}

// layerMetrics computes the per-layer metrics of a traced run: from
// spans (http, server, cluster, jobs, store), from the replay (the
// library layers), and the ledger that checks they add up. It returns
// warnings for ledger coverage outside 0.85–1.15.
func layerMetrics(tr *tracer, rp *replay, lat map[string][]float64, put func(string, float64, int)) []string {
	samples := tr.layerSamples()
	maps.Copy(samples, rp.samples)
	med := map[string]float64{}
	for name, xs := range samples {
		if len(xs) == 0 {
			continue
		}
		switch name {
		case "store.gets_per_commit", "store.puts_per_commit":
			med[name] = sum(xs) / float64(len(xs))
		default:
			med[name] = median(xs)
		}
		put(name, med[name], len(xs))
	}
	if xs := samples["jobs.queue_wait_ms"]; len(xs) > 0 {
		put("jobs.queue_wait_p90_ms", quantile(xs, 0.9), len(xs))
	}
	if n := len(samples["search.pruned"]); n > 0 {
		ratio := 0.0 // no bound was computed, so nothing could be pruned
		if b := sum(samples["search.bound_evals"]); b > 0 {
			ratio = sum(samples["search.pruned"]) / b
		}
		put("search.prune_ratio", ratio, n)
	}

	// Ledger: each replayed request's blocking-path time, plus the traced
	// store calls the server makes on that path, against the traced
	// handler median.
	var warn []string
	coverage := func(name string, path []float64, handler string) {
		h, ok := med[handler]
		if len(path) == 0 || !ok || h <= 0 {
			return
		}
		c := median(path) / h
		put(name, c, len(path))
		if c < 0.85 || c > 1.15 {
			warn = append(warn, fmt.Sprintf("%s = %.3f is outside 0.85–1.15: the replayed layers and store calls do not add up to the traced handler time", name, c))
		}
	}
	var minePaths, commitPaths []float64
	for _, p := range rp.minePaths {
		ms := p.ms
		if p.restore {
			ms += med["store.get_ms"]
		}
		minePaths = append(minePaths, ms)
	}
	storePerCommit := med["store.gets_per_commit"]*med["store.get_ms"] + med["store.puts_per_commit"]*med["store.put_ms"]
	for _, ms := range rp.commitPaths {
		commitPaths = append(commitPaths, ms+storePerCommit)
	}
	coverage("ledger.mine_coverage", minePaths, "server.mine_span_ms")
	coverage("ledger.commit_coverage", commitPaths, "server.commit_span_ms")

	if on, off := lat["mine.traced"], lat["mine.untraced"]; len(on) > 0 && len(off) > 0 {
		put("trace.overhead_pct", 100*(median(on)/median(off)-1), len(on))
	}
	return warn
}

// unitOf reads a metric's unit off its name.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_per_s", "1/s"}, {"_per_ms", "1/ms"}, {"_per_commit", "count"},
		{"_ms", "ms"}, {"_s", "s"}, {"_mb", "MB"}, {"_kb", "KB"}, {"_pct", "%"},
		{"_rate", "ratio"}, {"_ratio", "ratio"}, {"_coverage", "ratio"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

// report prints the run's metadata and every metric it measured.
func report(out io.Writer, cfg config, res *result) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "# %s seed=%d %s\n", res.Workload, res.Seed, mode)
	var meta []string
	for _, k := range slices.Sorted(maps.Keys(res.Meta)) {
		meta = append(meta, fmt.Sprintf("%s=%v", k, res.Meta[k]))
	}
	fmt.Fprintf(out, "# meta: %s\n", strings.Join(meta, " "))
	var counts []string
	for _, k := range slices.Sorted(maps.Keys(res.Counts)) {
		counts = append(counts, fmt.Sprintf("%s=%d", k, res.Counts[k]))
	}
	fmt.Fprintf(out, "# ops: %s\n", strings.Join(counts, " "))
	fmt.Fprintf(out, "# seconds: set-up %.2f, window %.2f, oracle %.2f, total %.2f\n",
		res.Phases["setup"], res.Phases["window"], res.Phases["oracle"], res.Phases["total"])
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[name]
		fmt.Fprintf(out, "%-30s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	for _, w := range res.Warnings {
		fmt.Fprintln(out, "# warning:", w)
	}
	for _, e := range res.Errors {
		fmt.Fprintln(out, "# error:", e)
	}
	fmt.Fprintf(out, "# oracle: %d sessions, %d steps replayed, %d mismatched; %d of %d ops failed\n",
		res.Counts["oracle_sessions"], res.Counts["oracle_steps"], res.Counts["oracle_mismatches"], res.Failed, res.Attempted)
}

// resultLine is the final output line: the metrics BENCHMARK.json asks
// for in this mode, each of which the run must have measured.
func resultLine(res *result, want []specMetric) (string, error) {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jm{}
	for _, sm := range want {
		m, ok := res.Metrics[sm.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", res.Workload, sm.Name)
		}
		if m.Unit != sm.Unit {
			return "", fmt.Errorf("metric %s: measured in %s, BENCHMARK.json says %s", sm.Name, m.Unit, sm.Unit)
		}
		metrics[sm.Name] = jm{m.Value, m.Unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(raw), err
}

func writeResult(cfg config, res *result, tr *tracer) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	name := fmt.Sprintf("run-%s-seed%d-%s-%d.json", res.Workload, res.Seed, mode, res.StartedAt.UnixNano())
	if err := writeJSON(filepath.Join(cfg.out, name), res); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return writeJSON(filepath.Join(cfg.out, "trace-"+res.Workload+".json"), map[string]any{
		"workload": res.Workload, "seed": res.Seed, "meta": res.Meta,
		"metrics": res.Metrics, "spans": tr.spans,
	})
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runMeta records what a result depends on besides the code's inputs.
func runMeta(cfg config, storeDir string) map[string]any {
	return map[string]any{
		"commit":     gitCommit(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"store_fs":   fsType(storeDir),
		"seed":       cfg.seed,
		"seconds":    cfg.window.Seconds(),
		"users":      users,
		"setups":     setups,
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree. Discovery stops at the current directory.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	raw, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// rssSampler samples the process's resident set size on a ticker. The
// peak (VmHWM) is a single transient and varied by a quarter between
// runs of spread-water; the 90th percentile of the samples keeps the
// high-water level and repeats within a few per cent.
type rssSampler struct {
	quit, done chan struct{}
	mb         []float64
	err        error
}

func sampleRSS(every time.Duration) *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				mb, err := rssMB()
				if err != nil {
					s.err = err
					return
				}
				s.mb = append(s.mb, mb)
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the samples, in MB.
func (s *rssSampler) stop() ([]float64, error) {
	close(s.quit)
	<-s.done
	if s.err == nil && len(s.mb) == 0 {
		s.err = errors.New("RSS: no sample taken")
	}
	return s.mb, s.err
}

// heapAllocated is the number of bytes the process has allocated on the
// heap since it started, servers and users together.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// rssMB reads the process's resident set size from /proc/self/statm.
func rssMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("RSS: %w", err)
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("RSS: /proc/self/statm reads %q", raw)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("RSS: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}
