// Command sisd-server runs the interactive exploration API (a SIDE-style
// session server, §V of the paper): create a session over a dataset,
// then iteratively mine, explain and commit patterns over HTTP. Mining
// is job-oriented: each mine runs on a bounded worker pool, and clients
// either wait in-request (default) or pass {"async":true} and poll the
// job. Sessions are snapshotted to a store (commit, eviction, explicit
// /snapshot) and restored transparently — with -store-dir the belief
// state survives restarts and can be shared by multiple processes.
//
//	sisd-server -addr :8080 -store-dir /var/lib/sisd/sessions
//
//	curl -X POST localhost:8080/api/v1/sessions -d '{"dataset":"crime"}'
//	curl -X POST localhost:8080/api/v1/sessions/s0001/mine -d '{"spread":false}'
//	curl -X POST localhost:8080/api/v1/sessions/s0001/mine -d '{"async":true,"timeoutMs":500}'
//	curl      'localhost:8080/api/v1/jobs/j000001?waitMs=2000'
//	curl -X POST localhost:8080/api/v1/sessions/s0001/commit
//	curl -X POST localhost:8080/api/v1/sessions/s0001/snapshot
//	curl      localhost:8080/api/v1/sessions/s0001/history
//	curl      localhost:8080/api/v1/jobs
//	curl -X DELETE localhost:8080/api/v1/jobs/j000002
//
// Mine responses carry a status field: "complete", "partial" (budget
// expired, best-so-far returned) or "timeout" (budget expired before
// anything was scored).
//
// Durability scales from none to replicated: no -store-dir keeps
// snapshots in memory, one -store-dir persists them to a single
// directory, and repeating -store-dir builds a quorum-replicated store
// over N directories (ideally on independent disks): writes need
// -store-quorum acks (default majority), reads repair lagging or
// corrupt replicas from the freshest quorum copy, and a background
// anti-entropy sweep (-store-sweep) converges replicas that were down.
// Losing a minority of replica disks leaves serving unaffected (readyz
// reports a store_replica_degraded warning with per-replica health);
// losing quorum degrades to serve-from-memory per DESIGN.md §11.
//
//	sisd-server -store-dir /mnt/diskA/sisd -store-dir /mnt/diskB/sisd \
//	            -store-dir /mnt/diskC/sisd -store-quorum 2
//
// Lifecycle: GET /api/v1/healthz and /api/v1/readyz serve probes, and
// SIGTERM/SIGINT triggers a graceful shutdown — the server drains
// (stops accepting sessions and mines, waits for in-flight jobs up to
// -drain-timeout, flushes every live session to the store) before the
// listener closes. A crash (SIGKILL, power loss) instead relies on the
// store's crash-safety: fsync'd atomic snapshot writes plus a startup
// recovery sweep that clears torn temp files and quarantines corrupt
// snapshots.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// dirList collects repeated -store-dir flags.
type dirList []string

func (d *dirList) String() string { return strings.Join(*d, ",") }

func (d *dirList) Set(v string) error {
	*d = append(*d, v)
	return nil
}

// debugServer exposes net/http/pprof on its own listener, opt-in via
// -debug-addr. Profiles never share the API port: the API mux stays
// closed (cmd/apicheck pins its route set) and an operator can firewall
// the debug port independently.
func debugServer(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("debug listener: %v", err)
	}
	log.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
	go func() {
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("debug server: %v", err)
		}
	}()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sisd-server: ")
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port; the actual address is logged)")
	var storeDirs dirList
	flag.Var(&storeDirs, "store-dir", "directory for session snapshots; repeat for a quorum-replicated store over N dirs (empty = in-memory store)")
	storeQuorum := flag.Int("store-quorum", 0, "write quorum W across repeated -store-dir replicas (0 = majority); reads need N-W+1 replies")
	storeSweep := flag.Duration("store-sweep", 30*time.Second, "anti-entropy sweep interval for a replicated store (0 = manual only)")
	workers := flag.Int("workers", 0, "concurrent mine jobs (0 = max(2, NumCPU/2))")
	queueCap := flag.Int("queue", 0, "pending mine queue capacity before 503 (0 = 256)")
	maxSessions := flag.Int("max-sessions", 0, "live in-memory session cap; LRU beyond it is evicted to the store (0 = 256)")
	sessionTTL := flag.Duration("session-ttl", 0, "idle session eviction TTL (0 = 30m)")
	syncWait := flag.Duration("sync-wait", 0, "max in-request wait for a sync mine before 202 + job id (0 = 10m)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight mine jobs during graceful shutdown")
	shardID := flag.String("shard-id", "", "stable shard identity reported in healthz/readyz and session listings (cluster deployments)")
	debugAddr := flag.String("debug-addr", "", "optional separate listen address for /debug/pprof (empty = disabled)")
	flag.Parse()

	opts := server.Options{
		Workers:     *workers,
		QueueCap:    *queueCap,
		MaxSessions: *maxSessions,
		SessionTTL:  *sessionTTL,
		SyncWait:    *syncWait,
		ShardID:     *shardID,
	}
	if *debugAddr != "" {
		debugServer(*debugAddr)
	}
	switch len(storeDirs) {
	case 0:
		// in-memory store
	case 1:
		store, err := server.NewDirStore(storeDirs[0])
		if err != nil {
			log.Fatal(err)
		}
		if tmp, quarantined := store.RecoveryStats(); tmp > 0 || quarantined > 0 {
			log.Printf("store recovery: removed %d torn temp file(s), quarantined %d corrupt snapshot(s)", tmp, quarantined)
		}
		opts.Store = store
		log.Printf("persisting sessions to %s", storeDirs[0])
	default:
		store, err := server.NewReplicatedDirStore(storeDirs, *storeQuorum, *storeSweep)
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
		opts.Store = store
		w, r, n := store.Quorum()
		log.Printf("replicating sessions across %d dirs (write quorum %d, read quorum %d): %s", n, w, r, storeDirs.String())
		// Prime the breakers with one operation so replicas that are
		// already dead show up in the startup log.
		_, _ = store.List()
		for _, h := range store.ReplicaHealth() {
			if h.LastError != "" {
				log.Printf("store replica %s unavailable: %s", h.ID, h.LastError)
			}
		}
	}
	api := server.NewWithOptions(opts)
	defer api.Close()

	// Bind before announcing: with -addr :0 the chaos harness (and any
	// script) needs the real port, so the log line carries ln.Addr().
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{
		Handler:           api.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	go func() {
		<-ctx.Done()
		stop() // restore default signal behavior: a second signal kills hard
		log.Printf("shutdown signal; draining (timeout %s)", *drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		rep := api.Drain(dctx)
		log.Printf("drain: jobsDrained=%v sessions=%d durable=%d failed=%v",
			rep.JobsDrained, rep.Sessions, rep.Durable, rep.Failed)
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = srv.Shutdown(sctx)
	}()

	log.Printf("listening on %s", ln.Addr())
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("shut down cleanly")
}
