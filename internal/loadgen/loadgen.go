// Package loadgen is the serving-layer scalability harness: it drives N
// concurrent simulated users through full interactive mining loops
// (create session → [mine → commit]×k → delete) against a running
// server and reports latency percentiles and throughput as JSON — the
// artifact complementing the paper's Table II single-search runtimes
// with whole-system numbers under concurrency.
package loadgen

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// Config parameterizes a load run.
type Config struct {
	// BaseURL targets the server, e.g. "http://localhost:8080".
	BaseURL string `json:"baseUrl"`
	// Users is the number of concurrent simulated users (default 8).
	Users int `json:"users"`
	// Iterations is the number of mine/commit loops per user (default 3).
	Iterations int `json:"iterations"`
	// Dataset is the builtin each session is created over (default
	// "synthetic"); SeedBase+user seeds it so users differ.
	Dataset  string `json:"dataset"`
	SeedBase int64  `json:"seedBase,omitempty"`
	// Depth/BeamWidth tune per-mine cost (0 = paper defaults).
	Depth     int `json:"depth,omitempty"`
	BeamWidth int `json:"beamWidth,omitempty"`
	// Spread also mines a spread preview on every mine.
	Spread bool `json:"spread,omitempty"`
	// PairSparse creates the sessions with the §III-C 2-sparsity
	// constraint on spread directions — the interpretable-direction
	// serving scenario (meaningful with Spread set).
	PairSparse bool `json:"pairSparse,omitempty"`
	// Async drives the job API (submit + poll) instead of sync mines.
	Async bool `json:"async,omitempty"`
	// TimeoutMS is the per-mine budget handed to the server (0 = none).
	TimeoutMS int `json:"timeoutMs,omitempty"`
	// Client, when set, is the HTTP client every virtual user shares —
	// the cluster harness passes one pooled keep-alive transport through
	// its baseline and cluster legs so client-side connection churn
	// cannot skew the comparison. Nil builds a run-scoped pooled client.
	Client *http.Client `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Users <= 0 {
		c.Users = 8
	}
	if c.Iterations <= 0 {
		c.Iterations = 3
	}
	c.Dataset = orDefault(c.Dataset, "synthetic")
	c.SeedBase = orDefault(c.SeedBase, 1000)
	return c
}

// orDefault returns v, or def when v is the zero value.
func orDefault[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

// OpStats summarizes one operation type's latencies.
type OpStats struct {
	Count  int     `json:"count"`
	Failed int     `json:"failed"`
	MeanMS float64 `json:"meanMs"`
	P50MS  float64 `json:"p50Ms"`
	P95MS  float64 `json:"p95Ms"`
	P99MS  float64 `json:"p99Ms"`
	MaxMS  float64 `json:"maxMs"`
}

// Report is the JSON output of a load run.
type Report struct {
	Config     Config  `json:"config"`
	WallMS     float64 `json:"wallMs"`
	Jobs       int     `json:"jobs"` // completed mine jobs
	FailedJobs int     `json:"failedJobs"`
	JobsPerSec float64 `json:"jobsPerSec"`
	// SpreadPreviews counts mines that returned a spread direction
	// (spread-mode runs only): the server may legitimately drop the
	// spread leg of a budgeted mine, so the count makes that visible.
	SpreadPreviews int                `json:"spreadPreviews,omitempty"`
	Ops            map[string]OpStats `json:"ops"`
	// Errors holds the first few failures verbatim for diagnosis.
	Errors []string `json:"errors,omitempty"`
}

type sample struct {
	op string
	ms float64
	ok bool
}

// user is one simulated user of a load run: its latency samples, its
// first errors and its spread-preview count.
type user struct {
	samples []sample
	errs    []string
	spreads int // mines that returned a spread preview
}

func (u *user) record(op string, start time.Time, err error) {
	u.samples = append(u.samples, sample{
		op: op,
		ms: float64(time.Since(start)) / float64(time.Millisecond),
		ok: err == nil,
	})
	if err != nil && len(u.errs) < 3 {
		u.errs = append(u.errs, fmt.Sprintf("%s: %v", op, err))
	}
}

// loop runs one user's full session lifecycle: create, the session
// loop, delete.
func (u *user) loop(d driver, cfg Config, uid int) {
	s := &session{create: server.CreateRequest{
		Dataset:    cfg.Dataset,
		Seed:       cfg.SeedBase + int64(uid),
		Depth:      cfg.Depth,
		BeamWidth:  cfg.BeamWidth,
		PairSparse: cfg.PairSparse,
	}}
	req := server.MineRequest{Spread: cfg.Spread, TimeoutMS: cfg.TimeoutMS, Async: cfg.Async}
	err := d.loop(s, cfg.Iterations, req, loopHooks{
		call: u.record,
		mined: func(m server.MineResponse) bool {
			if m.Location == nil {
				// A budget expiring before anything scored is the one
				// legitimate null: it counts as a completed job and the
				// loop goes on. Any other null counts as a failed job.
				u.samples[len(u.samples)-1].ok = m.Status == server.MineStatusTimeout
				return false
			}
			if m.Spread != nil {
				u.spreads++
			}
			return true
		},
	})
	if err != nil {
		return
	}
	start := time.Now()
	_, _, err = d.call("DELETE", "/sessions/"+s.id, nil, nil)
	u.record("delete", start, err)
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of sorted,
// or 0 for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(math.Ceil(q*float64(len(sorted))))-1]
}

// Run executes the load run and aggregates the report.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	client := cfg.Client
	if client == nil {
		// A dedicated pooled transport shared by every virtual user: the
		// default caps idle conns per host at 2, which would serialize 32
		// users into connection churn.
		transport := &http.Transport{
			MaxIdleConns:        cfg.Users * 2,
			MaxIdleConnsPerHost: cfg.Users * 2,
		}
		defer transport.CloseIdleConnections()
		client = &http.Client{Transport: transport}
	}
	d := driver{client: client, base: strings.TrimSuffix(cfg.BaseURL, "/")}

	users := make([]*user, cfg.Users)
	var wg sync.WaitGroup
	wall := time.Now()
	for uid := 0; uid < cfg.Users; uid++ {
		users[uid] = &user{}
		wg.Add(1)
		go func(uid int) {
			defer wg.Done()
			users[uid].loop(d, cfg, uid)
		}(uid)
	}
	wg.Wait()
	wallMS := float64(time.Since(wall)) / float64(time.Millisecond)

	rep := &Report{
		Config: cfg,
		WallMS: wallMS,
		Ops:    map[string]OpStats{},
	}
	lats := map[string][]float64{}
	failed := map[string]int{}
	for _, u := range users {
		rep.Errors = append(rep.Errors, u.errs...)
		rep.SpreadPreviews += u.spreads
		for _, s := range u.samples {
			if s.ok {
				lats[s.op] = append(lats[s.op], s.ms)
			} else {
				failed[s.op]++
			}
		}
	}
	rep.Jobs, rep.FailedJobs = len(lats["mine"]), failed["mine"]
	for op, n := range failed {
		rep.Ops[op] = OpStats{Count: n, Failed: n}
	}
	for op, l := range lats {
		sort.Float64s(l)
		var sum float64
		for _, v := range l {
			sum += v
		}
		rep.Ops[op] = OpStats{
			Count:  len(l) + failed[op],
			Failed: failed[op],
			MeanMS: sum / float64(len(l)),
			P50MS:  percentile(l, 0.50),
			P95MS:  percentile(l, 0.95),
			P99MS:  percentile(l, 0.99),
			MaxMS:  l[len(l)-1],
		}
	}
	if wallMS > 0 {
		rep.JobsPerSec = float64(rep.Jobs) / (wallMS / 1000)
	}
	if len(rep.Errors) > 8 {
		rep.Errors = rep.Errors[:8]
	}
	return rep, nil
}
