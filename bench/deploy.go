package main

import (
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// deployment is the system under test: in-process servers (and, for a
// sharded workload, a cluster.Router in front of them) listening on
// loopback, over the workload's store.
type deployment struct {
	entry  string            // base URL the users talk to
	shards map[string]string // shard id → base URL, for job lookups ("" without a router)
	stops  []func()          // run in reverse order by close
}

func (d *deployment) close() {
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
}

// deploy builds the workload's stores, servers and router under dir.
// The store is shared by every shard, as a shared filesystem or replica
// set is in a real cluster.
func deploy(w workload, dir string, tr *tracer) (*deployment, error) {
	d := &deployment{shards: map[string]string{}}
	var st server.Store
	switch w.store {
	case memStore:
		st = server.NewMemStore()
	case dirStore:
		ds, err := server.NewDirStore(filepath.Join(dir, "store"))
		if err != nil {
			return nil, err
		}
		st = ds
	case replicatedStore:
		dirs := []string{filepath.Join(dir, "replica-0"), filepath.Join(dir, "replica-1"), filepath.Join(dir, "replica-2")}
		rs, err := server.NewReplicatedDirStore(dirs, 2, 0)
		if err != nil {
			return nil, err
		}
		d.stops = append(d.stops, rs.Close)
		st = rs
	}
	st = tr.wrapStore(st)

	var shards []cluster.Shard
	for k := range max(w.shards, 1) {
		id := ""
		if w.shards > 0 {
			id = fmt.Sprintf("shard-%d", k)
		}
		srv := server.NewWithOptions(server.Options{Store: st, ShardID: id})
		d.stops = append(d.stops, srv.Close)
		url, stop, err := serve(tr.wrapHandler("server", id, srv.Handler()))
		if err != nil {
			d.close()
			return nil, err
		}
		d.stops = append(d.stops, stop)
		d.shards[id] = url
		d.entry = url
		shards = append(shards, cluster.Shard{ID: id, URL: url})
	}
	if w.shards > 0 {
		rt, err := cluster.NewRouter(cluster.Options{Shards: shards})
		if err != nil {
			d.close()
			return nil, err
		}
		rt.Start() // returns after the first probe sweep of every shard
		d.stops = append(d.stops, rt.Close)
		url, stop, err := serve(tr.wrapHandler("cluster", "", rt.Handler()))
		if err != nil {
			d.close()
			return nil, err
		}
		d.stops = append(d.stops, stop)
		d.entry = url
	}
	return d, nil
}

// serve runs h on a loopback listener until the returned stop is called;
// stop returns once the serving goroutine has exited.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: time.Minute}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // always ErrServerClosed after stop
	}()
	stop := func() {
		_ = hs.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// The warm-up session is queue position probeSession under seed
// probeSeed in every set-up of every run, so that setup_s times the same
// work whatever the run's seed. Position one million is beyond any a
// timed window reaches.
const (
	probeSeed    = 0
	probeSession = 1_000_000
)

// setUp deploys the workload, has every user probe readiness over its
// own connection, and runs one warm-up session through the workload's
// first two iterations, so that lazy initialisation (worker goroutines,
// store directories, first-request code paths) is paid here and not by
// the first timed requests. The returned duration is one set-up's cost.
func setUp(w workload, dir string, tr *tracer) (*deployment, []*client, time.Duration, error) {
	start := time.Now()
	d, err := deploy(w, dir, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	clients := make([]*client, users)
	for u := range clients {
		clients[u] = newClient(d.entry)
	}
	for _, c := range clients {
		rp, e := c.call(http.MethodGet, "/api/v1/readyz", nil)
		if err = expect(rp, e, http.StatusOK); err != nil {
			break
		}
	}
	if err == nil {
		err = warmUp(w, clients[0])
	}
	if err != nil {
		shutDown(d, clients)
		return nil, nil, 0, err
	}
	return d, clients, time.Since(start), nil
}

func warmUp(w workload, c *client) error {
	w.iters = min(w.iters, 2)
	u := &user{l: &load{w: w, seed: probeSeed, deadline: time.Now().Add(time.Hour)}, c: c, lat: map[string][]float64{}}
	u.session(probeSession)
	if u.failed > 0 {
		return fmt.Errorf("warm-up session: %s", strings.Join(u.errs, "; "))
	}
	return nil
}
