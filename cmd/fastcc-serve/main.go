// Command fastcc-serve runs the multi-tenant contraction daemon: clients
// upload tensors (content-addressed by the SHA-256 of their canonical BTNS
// encoding), run contractions over them by hash, and download results —
// with per-tenant shard-cache accounting and bounded request admission
// underneath. See README.md "Running the server" for the HTTP surface.
//
//	fastcc-serve -addr 127.0.0.1:8080 -cache-budget 268435456 \
//	    -tenant-quota 67108864 -inflight 4 -queue 64
//
// On SIGINT/SIGTERM the daemon stops accepting requests, drains in-flight
// contractions, drops all server state and exits 0 only if the shard-cache
// and drain-segment leak gauges returned to their startup baseline — so a
// clean shutdown doubles as a leak check (make serve-smoke relies on it).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fastcc/internal/server"
)

// Connection bounds of the daemon's HTTP server: a client gets
// readHeaderTimeout to send its request headers, which may not exceed
// maxHeaderBytes, and an idle keep-alive connection is closed after
// idleTimeout. Bodies have no read deadline, since uploads may be large;
// the handlers bound their size instead.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer serves h with the daemon's connection bounds.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, stop); err != nil {
		fmt.Fprintln(os.Stderr, "fastcc-serve:", err)
		os.Exit(1)
	}
}

// run is main minus the process plumbing, testable with an injected stop
// channel and capture writers.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("fastcc-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
		addrFile     = fs.String("addr-file", "", "write the bound address to this file once listening")
		inflight     = fs.Int("inflight", 2, "max concurrent contractions")
		queue        = fs.Int("queue", 16, "max queued contractions behind the in-flight bound (-1 = none)")
		cacheBudget  = fs.Int64("cache-budget", 0, "shard-cache budget in bytes (0 = platform default, -1 = unbounded)")
		tenantQuota  = fs.Int64("tenant-quota", 0, "per-tenant shard-cache quota in bytes (0 = none)")
		uploadQuota  = fs.Int64("upload-quota", 0, "per-tenant registry quota in estimated operand bytes (0 = none)")
		threads      = fs.Int("threads", 0, "worker threads per contraction (0 = all cores)")
		timeout      = fs.Duration("timeout", 60*time.Second, "per-request contraction deadline")
		spillDir     = fs.String("spill-dir", "", "spill directory for the shard cache's disk tier (empty = disabled)")
		spillBudget  = fs.Int64("spill-budget", 0, "spill directory byte budget (0 = unbounded)")
		spillPersist = fs.Bool("spill-persist", false, "keep spill files across restarts so the next daemon adopts them")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	srv, err := server.New(server.Config{
		Threads:      *threads,
		CacheBudget:  *cacheBudget,
		TenantQuota:  *tenantQuota,
		UploadQuota:  *uploadQuota,
		Inflight:     *inflight,
		Queue:        *queue,
		Timeout:      *timeout,
		SpillDir:     *spillDir,
		SpillBudget:  *spillBudget,
		SpillPersist: *spillPersist,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// Written atomically-enough (tmp + rename) so a watcher polling for
		// the file never reads a partial address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound+"\n"), 0o644); err != nil {
			_ = ln.Close()
			return err
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			_ = ln.Close()
			return err
		}
	}
	fmt.Fprintf(stdout, "fastcc-serve listening on %s\n", bound)

	hs := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case sig := <-stop:
		fmt.Fprintf(stdout, "fastcc-serve: %v, shutting down\n", sig)
	case err := <-serveErr:
		_ = srv.Close()
		return err
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		_ = srv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	if err := srv.Close(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "fastcc-serve: clean shutdown, leak gauges at baseline")
	return nil
}
