// Package loadgen is the serving-layer scalability harness: it drives N
// concurrent simulated users through full interactive mining loops
// (create session → [mine → commit]×k → delete) against a running
// server and reports latency percentiles and throughput as JSON — the
// artifact complementing the paper's Table II single-search runtimes
// with whole-system numbers under concurrency.
package loadgen

import (
	"encoding/json"
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
	if c.Dataset == "" {
		c.Dataset = "synthetic"
	}
	if c.SeedBase == 0 {
		c.SeedBase = 1000
	}
	return c
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

type user struct {
	client  *http.Client
	base    string
	samples []sample
	errs    []string
	spreads int // mines that returned a spread preview
}

func (u *user) record(op string, start time.Time, err error) error {
	u.samples = append(u.samples, sample{
		op: op,
		ms: float64(time.Since(start)) / float64(time.Millisecond),
		ok: err == nil,
	})
	if err != nil && len(u.errs) < 3 {
		u.errs = append(u.errs, fmt.Sprintf("%s: %v", op, err))
	}
	return err
}

func (u *user) call(method, path string, body, out any) error {
	var rd *strings.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = strings.NewReader(string(raw))
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, u.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := u.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return fmt.Errorf("%s %s: HTTP %d %s: %s", method, path, resp.StatusCode, env.Error.Code, env.Error.Message)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

type jobStatusView struct {
	ID     string              `json:"id"`
	Status string              `json:"status"`
	Error  string              `json:"error"`
	Result server.MineResponse `json:"result"`
}

// mineOnce performs one mine, sync or async, and returns the outcome.
func (u *user) mineOnce(cfg Config, sessionID string) (server.MineResponse, error) {
	req := server.MineRequest{Spread: cfg.Spread, TimeoutMS: cfg.TimeoutMS, Async: cfg.Async}
	path := "/api/v1/sessions/" + sessionID + "/mine"
	if !cfg.Async {
		var resp server.MineResponse
		err := u.call("POST", path, req, &resp)
		return resp, err
	}
	var accepted jobStatusView
	if err := u.call("POST", path, req, &accepted); err != nil {
		return server.MineResponse{}, err
	}
	deadline := time.Now().Add(5 * time.Minute)
	for time.Now().Before(deadline) {
		var jv jobStatusView
		if err := u.call("GET", "/api/v1/jobs/"+accepted.ID+"?waitMs=1000", nil, &jv); err != nil {
			return server.MineResponse{}, err
		}
		switch jv.Status {
		case "done":
			return jv.Result, nil
		case "failed", "cancelled":
			return server.MineResponse{}, fmt.Errorf("job %s %s: %s", jv.ID, jv.Status, jv.Error)
		}
	}
	return server.MineResponse{}, fmt.Errorf("job %s: poll deadline exceeded", accepted.ID)
}

// loop runs one user's full session lifecycle.
func (u *user) loop(cfg Config, uid int) {
	var info server.SessionInfo
	start := time.Now()
	err := u.call("POST", "/api/v1/sessions", server.CreateRequest{
		Dataset:    cfg.Dataset,
		Seed:       cfg.SeedBase + int64(uid),
		Depth:      cfg.Depth,
		BeamWidth:  cfg.BeamWidth,
		PairSparse: cfg.PairSparse,
	}, &info)
	if u.record("create", start, err) != nil {
		return
	}
	for i := 0; i < cfg.Iterations; i++ {
		start = time.Now()
		mined, err := u.mineOnce(cfg, info.ID)
		if u.record("mine", start, err) != nil {
			return
		}
		if mined.Location == nil {
			// A budget expiring before anything scored is the one
			// legitimate null; count it as a failed job, keep looping.
			u.samples[len(u.samples)-1].ok = mined.Status == server.MineStatusTimeout
			continue
		}
		if mined.Spread != nil {
			u.spreads++
		}
		start = time.Now()
		err = u.call("POST", "/api/v1/sessions/"+info.ID+"/commit", nil, nil)
		if u.record("commit", start, err) != nil {
			return
		}
	}
	start = time.Now()
	_ = u.record("delete", start, u.call("DELETE", "/api/v1/sessions/"+info.ID, nil, nil))
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
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

	users := make([]*user, cfg.Users)
	var wg sync.WaitGroup
	wall := time.Now()
	for uid := 0; uid < cfg.Users; uid++ {
		users[uid] = &user{client: client, base: strings.TrimSuffix(cfg.BaseURL, "/")}
		wg.Add(1)
		go func(uid int) {
			defer wg.Done()
			users[uid].loop(cfg, uid)
		}(uid)
	}
	wg.Wait()
	wallMS := float64(time.Since(wall)) / float64(time.Millisecond)

	rep := &Report{
		Config: cfg,
		WallMS: wallMS,
		Ops:    map[string]OpStats{},
	}
	byOp := map[string][]float64{}
	failedByOp := map[string]int{}
	for _, u := range users {
		rep.Errors = append(rep.Errors, u.errs...)
		rep.SpreadPreviews += u.spreads
		for _, s := range u.samples {
			if s.ok {
				byOp[s.op] = append(byOp[s.op], s.ms)
			} else {
				failedByOp[s.op]++
			}
			if s.op == "mine" {
				if s.ok {
					rep.Jobs++
				} else {
					rep.FailedJobs++
				}
			}
		}
	}
	for op, lats := range byOp {
		sort.Float64s(lats)
		var sum float64
		for _, v := range lats {
			sum += v
		}
		rep.Ops[op] = OpStats{
			Count:  len(lats) + failedByOp[op],
			Failed: failedByOp[op],
			MeanMS: sum / float64(len(lats)),
			P50MS:  percentile(lats, 0.50),
			P95MS:  percentile(lats, 0.95),
			P99MS:  percentile(lats, 0.99),
			MaxMS:  lats[len(lats)-1],
		}
	}
	for op, n := range failedByOp {
		if _, ok := rep.Ops[op]; !ok {
			rep.Ops[op] = OpStats{Count: n, Failed: n}
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
