package main

import (
	"cmp"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// Tracing records spans at request boundaries, in the manner of Dapper
// (Sigelman et al., Google TR 2010), from the benchmark's own code only:
// the users' client calls, wrappers around each server's and the
// router's Handler(), the job records the servers publish, and a
// wrapper around the configured store. Spans stay in memory and are
// written out when the run ends.
//
// The router forwards only Content-Type, so no header can carry a
// request id from router to shard. A request's spans are joined by
// (session id, op, per-session sequence number) instead: a session's
// requests are sequential, so every layer numbers them alike.
//
// Every other session of a traced run is traced; the others, running at
// the same time, give the untraced latency trace.overhead_pct compares
// against.

type span struct {
	Layer  string `json:"layer"` // client, cluster, server, jobs or store
	Op     string `json:"op"`
	SID    string `json:"sid,omitempty"`
	Key    string `json:"key,omitempty"` // joins one request's spans across layers
	Shard  string `json:"shard,omitempty"`
	Start  int64  `json:"startNs"` // since the tracer was made (wall clock)
	End    int64  `json:"endNs"`
	Bytes  int    `json:"bytes,omitempty"` // store puts: snapshot model bytes
	Parent int    `json:"parent"`          // index of the parent span, -1 for a root
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	base     int64    // UnixNano at creation
	sessions sync.Map // ids of traced sessions

	mu    sync.Mutex
	spans []span
	seq   map[string]int // layer|session|op → requests seen
}

func newTracer() *tracer { return &tracer{base: time.Now().UnixNano(), seq: map[string]int{}} }

// at converts a wall-clock time to the trace's time base. Job records
// carry wall-clock times only, so every span uses the wall clock.
func (t *tracer) at(tm time.Time) int64 { return tm.UnixNano() - t.base }

func (t *tracer) traced(sid string) bool {
	_, ok := t.sessions.Load(sid)
	return ok
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// nextKey numbers a layer's requests of one op on one session.
func (t *tracer) nextKey(layer, sid, op string) string {
	k := layer + "|" + sid + "|" + op
	t.mu.Lock()
	n := t.seq[k]
	t.seq[k] = n + 1
	t.mu.Unlock()
	return fmt.Sprintf("%s/%s/%d", sid, op, n)
}

// wrapHandler records a span for every session-scoped request of a
// traced session. A nil tracer returns h itself.
func (t *tracer) wrapHandler(layer, shard string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sid, op := sessionOp(r)
		if sid == "" || !t.traced(sid) {
			h.ServeHTTP(w, r)
			return
		}
		key := t.nextKey(layer, sid, op)
		start := t.at(time.Now())
		h.ServeHTTP(w, r)
		t.add(span{Layer: layer, Op: op, SID: sid, Key: key, Shard: shard, Start: start, End: t.at(time.Now())})
	})
}

// sessionOp extracts the session id and operation of a session-scoped
// /api/v1 request; other requests yield an empty id.
func sessionOp(r *http.Request) (sid, op string) {
	rest, ok := strings.CutPrefix(r.URL.Path, "/api/v1/sessions/")
	if !ok {
		return "", ""
	}
	sid, op, _ = strings.Cut(rest, "/")
	if op == "" {
		op = strings.ToLower(r.Method)
	}
	return sid, op
}

// wrapStore times every call the server makes to its store on behalf
// of a traced session. A nil tracer returns st itself.
func (t *tracer) wrapStore(st server.Store) server.Store {
	if t == nil {
		return st
	}
	return tracedStore{Store: st, t: t}
}

type tracedStore struct {
	server.Store
	t *tracer
}

func (s tracedStore) Put(snap *server.Snapshot) error {
	if !s.t.traced(snap.ID) {
		return s.Store.Put(snap)
	}
	start := time.Now()
	err := s.Store.Put(snap)
	s.t.add(span{Layer: "store", Op: "put", SID: snap.ID, Start: s.t.at(start), End: s.t.at(time.Now()), Bytes: len(snap.Model)})
	return err
}

func (s tracedStore) Get(id string) (*server.Snapshot, error) {
	if !s.t.traced(id) {
		return s.Store.Get(id)
	}
	start := time.Now()
	snap, err := s.Store.Get(id)
	s.t.add(span{Layer: "store", Op: "get", SID: id, Start: s.t.at(start), End: s.t.at(time.Now())})
	return snap, err
}

func (s tracedStore) Delete(id string) (bool, error) {
	if !s.t.traced(id) {
		return s.Store.Delete(id)
	}
	start := time.Now()
	ok, err := s.Store.Delete(id)
	s.t.add(span{Layer: "store", Op: "delete", SID: id, Start: s.t.at(start), End: s.t.at(time.Now())})
	return ok, err
}

// layerSamples links every span to its parent and returns, per layer
// metric, one sample per traced request (milliseconds, kilobytes or
// counts, as the name says).
func (t *tracer) layerSamples() map[string][]float64 {
	sp := t.spans
	byKey := map[string]int{} // layer|key → span, for the request-level layers
	bySID := map[string][]int{}
	for i := range sp {
		sp[i].Parent = -1
		switch sp[i].Layer {
		case "client", "cluster", "server":
			byKey[sp[i].Layer+"|"+sp[i].Key] = i
		}
		if sp[i].Layer == "server" {
			bySID[sp[i].SID] = append(bySID[sp[i].SID], i)
		}
	}
	find := func(layer, key string) int {
		if i, ok := byKey[layer+"|"+key]; ok {
			return i
		}
		return -1
	}
	kids := make([][]int, len(sp))
	for i := range sp {
		s := &sp[i]
		switch s.Layer {
		case "cluster":
			s.Parent = find("client", s.Key)
		case "server":
			if s.Parent = find("cluster", s.Key); s.Parent < 0 {
				s.Parent = find("client", s.Key)
			}
		case "jobs":
			s.Parent = find("server", s.Key)
		case "store":
			// The server calls its store inside a handler of the same
			// session; a session's requests never overlap.
			for _, p := range bySID[s.SID] {
				if sp[p].Start <= s.Start && s.End <= sp[p].End {
					s.Parent = p
					break
				}
			}
		}
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}

	out := map[string][]float64{}
	ms := func(name string, ns int64) { out[name] = append(out[name], float64(ns)/1e6) }
	// self is a span's duration minus the part its matching children cover.
	self := func(i int, match func(span) bool) int64 {
		var iv [][2]int64
		for _, k := range kids[i] {
			if match(sp[k]) {
				iv = append(iv, [2]int64{max(sp[k].Start, sp[i].Start), min(sp[k].End, sp[i].End)})
			}
		}
		return sp[i].dur() - unionLen(iv)
	}
	isRun := func(c span) bool { return c.Layer == "jobs" && c.Op == "run" }
	isStore := func(c span) bool { return c.Layer == "store" }
	isServer := func(c span) bool { return c.Layer == "server" }
	for i, s := range sp {
		switch {
		case s.Layer == "client" && s.Op == "mine":
			for _, k := range kids[i] { // the outermost server-side span
				ms("http.mine_overhead_ms", s.dur()-sp[k].dur())
			}
		case s.Layer == "cluster" && (s.Op == "mine" || s.Op == "commit"):
			ms("cluster.router_self_ms", self(i, isServer))
		case s.Layer == "server" && s.Op == "mine":
			ms("server.mine_span_ms", s.dur())
			ms("server.mine_self_ms", self(i, isRun))
		case s.Layer == "server" && s.Op == "commit":
			ms("server.commit_span_ms", s.dur())
			ms("server.commit_self_ms", self(i, isStore))
			var gets, puts float64
			for _, k := range kids[i] {
				switch sp[k].Op {
				case "get":
					gets++
				case "put":
					puts++
				}
			}
			out["store.gets_per_commit"] = append(out["store.gets_per_commit"], gets)
			out["store.puts_per_commit"] = append(out["store.puts_per_commit"], puts)
		case s.Layer == "jobs" && s.Op == "queue":
			ms("jobs.queue_wait_ms", s.dur())
		case s.Layer == "jobs" && s.Op == "run":
			ms("jobs.run_ms", s.dur())
		case s.Layer == "store" && s.Op == "put":
			ms("store.put_ms", s.dur())
			out["store.snapshot_kb"] = append(out["store.snapshot_kb"], float64(s.Bytes)/1024)
		case s.Layer == "store" && s.Op == "get":
			ms("store.get_ms", s.dur())
		}
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	end := int64(math.MinInt64)
	for _, x := range iv {
		if lo := max(x[0], end); x[1] > lo {
			total += x[1] - lo
			end = x[1]
		}
	}
	return total
}
