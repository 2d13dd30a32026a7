// Command sisd-router fronts a cluster of sisd-server shards: it
// serves the same /api/v1 surface as a single server, consistent-hashes
// each session id onto a shard, reverse-proxies the call over pooled
// keep-alive connections, and health-checks the shards through their
// readyz probes. Sessions migrate between shards by snapshot handoff
// over the shared -store-dir every shard must be started with (see
// DESIGN.md §12).
//
// Shards are static membership, one -shard id=url flag each:
//
//	sisd-server -addr :9001 -shard-id s1 -store-dir /var/lib/sisd &
//	sisd-server -addr :9002 -shard-id s2 -store-dir /var/lib/sisd &
//	sisd-router -addr :8080 \
//	    -shard s1=http://127.0.0.1:9001 \
//	    -shard s2=http://127.0.0.1:9002
//
// The router is stateless: routing is a pure function of (membership,
// shard health), so replicas and restarts agree on every assignment
// without coordination.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// shardFlags collects repeated -shard id=url flags.
type shardFlags []cluster.Shard

func (f *shardFlags) String() string {
	parts := make([]string, len(*f))
	for i, sh := range *f {
		parts[i] = sh.ID + "=" + sh.URL
	}
	return strings.Join(parts, ",")
}

func (f *shardFlags) Set(v string) error {
	id, url, ok := strings.Cut(v, "=")
	if !ok || id == "" || url == "" {
		return fmt.Errorf("want id=url, got %q", v)
	}
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	*f = append(*f, cluster.Shard{ID: id, URL: url})
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sisd-router: ")
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port; the actual address is logged)")
	var shards shardFlags
	flag.Var(&shards, "shard", "shard as id=url (repeatable); url without a scheme defaults to http://")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "health probe sweep interval")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-shard probe timeout")
	debugAddr := flag.String("debug-addr", "", "optional separate listen address for /debug/pprof (empty = disabled)")
	flag.Parse()

	rt, err := cluster.NewRouter(cluster.Options{
		Shards:        shards,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	rt.Start()
	defer rt.Close()

	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("debug listener: %v", err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", dln.Addr())
		go func() {
			dsrv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
			if err := dsrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	// Bind before announcing, same contract as sisd-server: scripts and
	// the load harness parse the logged address when -addr is :0.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
		log.Printf("shutdown signal; closing listener")
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()

	log.Printf("routing %d shard(s), listening on %s", len(shards), ln.Addr())
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("shut down cleanly")
}
