// Command hartd serves a file-backed HART store over TCP.
//
// It speaks the length-prefixed binary protocol from internal/wire
// (clients use the public client package), serves each connection's
// pipelined requests a burst at a time — consecutive Puts of a burst
// coalesced into one PutBatch — and shuts down in the durability-safe
// order on SIGINT/SIGTERM: stop accepting, drain every connection's
// received requests and write their responses, then Close the store —
// the superblock's clean-shutdown flag is the last write.
//
// Usage:
//
//	hartd -db /var/lib/hart/store.pm -addr :7070 -metrics-addr :9090
//
// The store file is created (with -size bytes) if missing; an existing
// file is attached with full recovery, exactly as hart.Open documents,
// eagerly and on GOMAXPROCS workers.
// -metrics-addr additionally serves Prometheus /metrics and expvar
// /debug/vars for live scraping: the store's counters and histograms, and
// the server's own counters (connections, requests, coalesced Puts,
// protocol errors) under "server.".
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	hart "github.com/casl-sdsu/hart"
	"github.com/casl-sdsu/hart/internal/obs"
	"github.com/casl-sdsu/hart/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the daemon body, separated from main so tests can drive it
// in-process (and the re-exec helpers can drive it in a child process)
// with captured output. ready, when non-nil, receives the bound listen
// address once the server is accepting.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("hartd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dbPath = fs.String("db", "", "PM image file (required; created if missing)")
		addr   = fs.String("addr", "127.0.0.1:7070", "TCP listen address (\":0\" picks a free port)")
		mAddr  = fs.String("metrics-addr", "", "serve Prometheus /metrics and expvar /debug/vars (e.g. :9090)")
		size   = fs.Int64("size", 64<<20, "arena size for a fresh store")
		hists  = fs.Bool("latency-hists", false, "collect latency histograms (small hot-path cost)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dbPath == "" {
		fmt.Fprintln(stderr, "hartd: -db is required")
		return 2
	}

	db, err := hart.Open(*dbPath, hart.Options{
		ArenaSize:       *size,
		RecoveryWorkers: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		fmt.Fprintf(stderr, "hartd: cannot open %s: %v\n", *dbPath, err)
		return 1
	}
	if *hists {
		db.EnableMetrics(true)
	}
	// Only an attach runs recovery, and recovery runs with one worker or
	// more.
	how := "created"
	if rs := db.LastRecoveryStats(); rs.Workers > 0 {
		how = "crash image, recovered"
		if rs.WasClean {
			how = "clean shutdown"
		}
		how += fmt.Sprintf(", %d recovery workers", rs.Workers)
	}
	fmt.Fprintf(stdout, "hartd: opened %s: %d records (%s)\n", *dbPath, db.Len(), how)

	srv := server.New(db.HART, server.Options{
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, format+"\n", a...)
		},
	})
	if *mAddr != "" {
		msrv := obs.Serve(*mAddr, "hart", func() obs.Snapshot {
			snap := db.Metrics()
			for name, v := range srv.Metrics().Counters() {
				snap.Counters["server."+name] = v
			}
			return snap
		}, func(err error) {
			fmt.Fprintf(stderr, "hartd: metrics server: %v\n", err)
		})
		defer msrv.Close()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "hartd: listen %s: %v\n", *addr, err)
		db.Close()
		return 1
	}
	// Install the handler before announcing readiness: a signal arriving
	// the instant the address is known must drain, not kill.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	fmt.Fprintf(stdout, "hartd: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "hartd: %s: draining connections\n", sig)
		srv.Shutdown()
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintf(stderr, "hartd: serve: %v\n", err)
			db.Close()
			return 1
		}
	}
	// Drain finished: every acknowledged write is applied. Close last so
	// the clean flag truthfully means "nothing in flight was dropped".
	if err := db.Close(); err != nil {
		fmt.Fprintf(stderr, "hartd: close: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "hartd: clean shutdown")
	return 0
}
