// Command mshd is the matching-and-scheduling daemon: a long-lived
// HTTP/JSON service that pins many (workload, base-string) sessions in one
// process and answers run, move and analysis queries for concurrent search
// sessions, reusing the incremental evaluator's checkpoints across
// requests (see internal/serve).
//
// Usage:
//
//	mshd -addr :8037
//	mshd -addr :8037 -max-sessions 128 -idle-timeout 30m
//	mshd -addr :8037 -access-log -debug-addr localhost:8038
//	mshd -addr :8037 -data-dir /var/lib/mshd
//
// Quickstart (see README.md "Serving" for the full walkthrough):
//
//	curl -s localhost:8037/v1/sessions -d '{"preset":"small"}'
//	curl -s localhost:8037/v1/sessions/s1/run -d '{"algorithm":"se","seed":1,"max_iterations":500}'
//	curl -s localhost:8037/v1/sessions/s1/gantt
//
// Durability: -data-dir names a directory for the durable session store
// (see internal/store). With it set, every mutating request persists the
// session write-behind, evicted sessions spill to disk instead of being
// lost, and a restarted daemon replays the directory on boot — sessions
// resume bit-identically from their last persisted state, surviving even
// kill -9. -fsync picks the durability/throughput trade-off ("always"
// fsyncs every append; "never" leaves flushing to the OS).
//
// Observability: GET /metrics serves the process registry in Prometheus
// text exposition format and GET /debug/vars the same as expvar-style
// JSON; -access-log writes one structured slog line per request with a
// propagated X-Request-ID. -debug-addr additionally serves net/http/pprof
// on a separate listener (off by default — profiling endpoints stay off
// the service port).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "repro/internal/dist" // registers se-dist, so sessions can coordinate worker pools
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8037", "listen address")
		maxSessions = flag.Int("max-sessions", serve.DefaultMaxSessions, "session cap; creating past it evicts the least-recently-used session")
		idleTimeout = flag.Duration("idle-timeout", 30*time.Minute, "evict sessions idle for this long (0 = never)")
		dataDir     = flag.String("data-dir", "", "durable session store directory; empty = sessions are in-memory only")
		fsync       = flag.String("fsync", "always", "store fsync policy: always (fsync every append) or never (leave flushing to the OS)")
		accessLog   = flag.Bool("access-log", false, "log one structured line per request to stderr")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof (plus /metrics and /debug/vars) on this separate address; empty = off")
	)
	flag.Parse()

	// One process registry: the manager's serving instruments and the
	// store's write/compaction instruments land on the same /metrics.
	reg := obs.NewRegistry()
	var st *store.Store
	if *dataDir != "" {
		policy, err := store.ParseFsync(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mshd:", err)
			os.Exit(2)
		}
		st, err = store.Open(*dataDir, store.Options{Fsync: policy, Metrics: reg})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mshd:", err)
			os.Exit(1)
		}
	}

	mgr := serve.NewManager(serve.Options{
		MaxSessions: *maxSessions,
		IdleTimeout: *idleTimeout,
		Metrics:     reg,
		Store:       st,
	})
	server := serve.NewServer(mgr)
	if *accessLog {
		server.SetAccessLog(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}
	srv := serve.NewHTTPServer(*addr, server)

	if *debugAddr != "" {
		go func() {
			if err := serve.NewHTTPServer(*debugAddr, debugMux(mgr)).ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "mshd: debug listener:", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "mshd: listening on %s (max-sessions %d, idle-timeout %v)\n",
			*addr, *maxSessions, *idleTimeout)
		if st != nil {
			fmt.Fprintf(os.Stderr, "mshd: durable store %s (fsync %s, recovered %d sessions)\n",
				st.Dir(), *fsync, mgr.RecoveredSessions())
		}
		errc <- srv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "mshd:", err)
			os.Exit(1)
		}
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "mshd: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "mshd: shutdown:", err)
		}
		// Order matters: the manager spills its sessions into the store,
		// then closing the store flushes those writes to disk.
		mgr.Close()
		if st != nil {
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mshd: store:", err)
			}
		}
	}
}

// debugMux is the -debug-addr handler: pprof's profiling endpoints plus
// the same metrics exports the service port mounts, so a profiling
// session needs only one address. Handlers are mounted explicitly — the
// pprof package's DefaultServeMux side effects stay unused.
func debugMux(mgr *serve.Manager) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", mgr.Registry().Handler())
	mux.Handle("GET /debug/vars", mgr.Registry().VarsHandler())
	return mux
}
