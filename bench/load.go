package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// client is one user's HTTP client: one keep-alive connection to the
// deployment's entry point.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is one request's outcome as the client saw it. The latency runs
// from sending the request to having read the whole response body.
type reply struct {
	status     int
	body       []byte
	shard      string // X-Sisd-Shard: which shard the router chose
	key        string // trace join key (traced sessions only)
	start, end time.Time
}

func (rp reply) ms() float64 { return float64(rp.end.Sub(rp.start)) / float64(time.Millisecond) }

func (c *client) call(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rp := reply{start: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		return rp, err
	}
	rp.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rp.end = time.Now()
	rp.status = resp.StatusCode
	rp.shard = resp.Header.Get("X-Sisd-Shard")
	return rp, err
}

// expect turns an unexpected status into an error.
func expect(rp reply, err error, want int) error {
	if err == nil && rp.status != want {
		err = fmt.Errorf("HTTP %d: %s", rp.status, bytes.TrimSpace(rp.body))
	}
	return err
}

// load is what the users of one timed window share. Users pull session
// indices from one queue; a session's inputs depend only on its index
// and the seed.
type load struct {
	w        workload
	seed     int64
	deadline time.Time // no session or iteration starts after it
	tr       *tracer   // trace runs: traces the sessions at odd queue positions
	shards   map[string]string
	next     atomic.Int64
	recs     []*sessionRec // the oracle's sample: the first sessions of the queue
}

// sessionRec is what the server answered for one sampled session.
type sessionRec struct {
	create server.CreateRequest
	steps  []step
}

type step struct {
	mine      server.MineResponse
	committed bool
	commit    commitReply
}

type commitReply struct {
	Iterations   int    `json:"iterations"`
	ModelVersion uint64 `json:"modelVersion"`
	Persisted    bool   `json:"persisted"`
}

type user struct {
	l      *load
	c      *client
	jobs   *http.Client // trace runs: job records, fetched from the serving shard
	traced bool         // the current session is traced

	lat                                  map[string][]float64 // op → latencies (ms) of successful ops
	attempted, failed                    int
	sessions, iterations, handoffRetries int
	errs                                 []string
}

// run drives closed-loop users over the clients until the deadline and
// returns them with their samples.
func (l *load) run(clients []*client) []*user {
	us := make([]*user, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		us[i] = &user{l: l, c: c, lat: map[string][]float64{}}
		if l.tr != nil {
			us[i].jobs = &http.Client{Transport: &http.Transport{}}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(l.deadline) {
				us[i].session(int(l.next.Add(1) - 1))
			}
			if us[i].jobs != nil {
				us[i].jobs.CloseIdleConnections()
			}
		}()
	}
	wg.Wait()
	return us
}

// session runs queue entry i: create → [mine → commit]… → delete, with
// a handoff before the second mine on the churn workload. It stops
// starting iterations at the deadline; the session is deleted either
// way.
func (u *user) session(i int) {
	l := u.l
	req := l.w.createRequest(l.seed, i)
	id := req.ID
	u.traced = l.tr != nil && i%2 == 1
	if u.traced {
		l.tr.sessions.Store(id, true)
	}
	var rec *sessionRec
	if i < len(l.recs) {
		rec = &sessionRec{create: req}
		l.recs[i] = rec
	}
	u.sessions++
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a CreateRequest always marshals
	}
	rp, err := u.send("create", id, http.MethodPost, "/api/v1/sessions", body)
	if !u.record("create", rp, expect(rp, err, http.StatusCreated)) {
		return
	}
	defer u.deleteSession(id)
	for it := 0; it < l.w.iters && time.Now().Before(l.deadline); it++ {
		resume := l.w.churn && it == 1
		if resume && !u.handoff(id) {
			return
		}
		var st step
		var ok bool
		if st.mine, ok = u.mine(id, resume); !ok {
			return
		}
		st.commit, st.committed = u.commit(id)
		if rec != nil {
			rec.steps = append(rec.steps, st)
		}
		if !st.committed {
			return
		}
		u.iterations++
	}
}

// send issues one request, recording a client span for traced sessions.
func (u *user) send(op, sid, method, path string, body []byte) (reply, error) {
	tr := u.l.tr
	key := ""
	if u.traced {
		key = tr.nextKey("client", sid, op)
	}
	rp, err := u.c.call(method, path, body)
	rp.key = key
	if u.traced && err == nil {
		tr.add(span{Layer: "client", Op: op, SID: sid, Key: key, Start: tr.at(rp.start), End: tr.at(rp.end)})
	}
	return rp, err
}

// record counts one attempted op and keeps its latency when it succeeded.
func (u *user) record(op string, rp reply, err error) bool {
	if !u.count(op, err) {
		return false
	}
	u.lat[op] = append(u.lat[op], rp.ms())
	return true
}

func (u *user) count(op string, err error) bool {
	u.attempted++
	if err != nil {
		u.failed++
		if len(u.errs) < 5 {
			u.errs = append(u.errs, fmt.Sprintf("%s: %v", op, err))
		}
		return false
	}
	return true
}

// mine runs a synchronous mine. Anything but a complete result (with a
// spread preview where the workload asks for one) is a failure.
func (u *user) mine(id string, resume bool) (server.MineResponse, bool) {
	body, err := json.Marshal(server.MineRequest{Spread: u.l.w.spread})
	if err != nil {
		panic(err)
	}
	rp, err := u.send("mine", id, http.MethodPost, "/api/v1/sessions/"+id+"/mine", body)
	var resp server.MineResponse
	err = expect(rp, err, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(rp.body, &resp)
	}
	if err == nil && (resp.Status != server.MineStatusComplete || resp.Location == nil || (u.l.w.spread && resp.Spread == nil)) {
		err = fmt.Errorf("mine status %q", resp.Status)
	}
	if !u.record("mine", rp, err) {
		return resp, false
	}
	if resume {
		u.lat["resume"] = append(u.lat["resume"], rp.ms())
	}
	if u.l.tr != nil {
		phase := "mine.untraced"
		if u.traced {
			phase = "mine.traced"
			u.fetchJob(rp, id, resp.Job)
		}
		u.lat[phase] = append(u.lat[phase], rp.ms())
	}
	return resp, true
}

// commit commits the pending pattern(s); a commit the store did not
// persist is a failure.
func (u *user) commit(id string) (commitReply, bool) {
	rp, err := u.send("commit", id, http.MethodPost, "/api/v1/sessions/"+id+"/commit", nil)
	var cr commitReply
	err = expect(rp, err, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(rp.body, &cr)
	}
	if err == nil && !cr.Persisted {
		err = errors.New("commit not persisted")
	}
	return cr, u.record("commit", rp, err)
}

// handoff flushes and evicts the session. A 409 mine_in_progress means
// the previous mine's job slot is not released yet: the server releases
// it asynchronously after answering the mine, and about 1 handoff in 100
// races that release. The user retries with exponential back-off from
// 1 ms, capped at the advertised retryAfterMs, and the retry is counted.
// Waiting the full retryAfterMs (1 s) every time would make throughput
// measure how many races a run happened to hit.
func (u *user) handoff(id string) bool {
	wait := time.Millisecond
	for attempt := 0; ; attempt++ {
		rp, err := u.send("handoff", id, http.MethodPost, "/api/v1/sessions/"+id+"/handoff", nil)
		if err == nil && rp.status == http.StatusConflict && attempt < 20 {
			var env struct {
				Error struct {
					Code         string `json:"code"`
					RetryAfterMs int64  `json:"retryAfterMs"`
				} `json:"error"`
			}
			if json.Unmarshal(rp.body, &env) == nil && env.Error.Code == "mine_in_progress" {
				u.handoffRetries++
				time.Sleep(min(wait, time.Duration(env.Error.RetryAfterMs)*time.Millisecond))
				wait *= 2
				continue
			}
		}
		return u.record("handoff", rp, expect(rp, err, http.StatusOK))
	}
}

func (u *user) deleteSession(id string) {
	rp, err := u.send("delete", id, http.MethodDelete, "/api/v1/sessions/"+id, nil)
	u.record("delete", rp, expect(rp, err, http.StatusOK))
}

// fetchJob reads a traced mine's job record from the shard that ran it
// (job ids are per shard, so not through the router) and records its
// queue wait and run time as spans under the mine.
func (u *user) fetchJob(rp reply, sid, job string) {
	var inf struct {
		Created  time.Time  `json:"created"`
		Started  *time.Time `json:"started"`
		Finished *time.Time `json:"finished"`
	}
	err := func() error {
		resp, err := u.jobs.Get(u.l.shards[rp.shard] + "/api/v1/jobs/" + job)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("job %s: HTTP %d", job, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(&inf)
	}()
	if err == nil && (inf.Started == nil || inf.Finished == nil) {
		err = fmt.Errorf("job %s has no start/finish time", job)
	}
	if !u.count("job", err) {
		return
	}
	tr := u.l.tr
	tr.add(span{Layer: "jobs", Op: "queue", SID: sid, Key: rp.key, Start: tr.at(inf.Created), End: tr.at(*inf.Started)})
	tr.add(span{Layer: "jobs", Op: "run", SID: sid, Key: rp.key, Start: tr.at(*inf.Started), End: tr.at(*inf.Finished)})
}
