package main

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"fastcc/internal/server"
)

// startDaemon runs the daemon's run() on a free port with an addr-file and
// returns the bound base URL plus a shutdown function that signals stop and
// waits for a clean exit.
func startDaemon(t *testing.T, extraArgs ...string) (baseURL string, stdout *strings.Builder, shutdown func() error) {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	stop := make(chan os.Signal, 1)
	stdout = &strings.Builder{}
	var stderr strings.Builder
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, extraArgs...)
	go func() { done <- run(args, stdout, &stderr, stop) }()

	deadline := time.Now().Add(5 * time.Second)
	var addr string
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote its addr file; stderr: %s", stderr.String())
		}
		if b, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(b))
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	return "http://" + addr, stdout, func() error {
		stop <- syscall.SIGTERM
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not exit after SIGTERM")
			return nil
		}
	}
}

func TestServeRoundTripAndCleanShutdown(t *testing.T) {
	baseURL, stdout, shutdown := startDaemon(t, "-threads", "2", "-inflight", "2")

	// The daemon is healthy and serves the API end to end.
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	c := server.NewClient(baseURL, "serve-test", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Stats(ctx); err != nil {
		t.Fatalf("stats over the wire: %v", err)
	}

	// SIGTERM: drains, leak-checks, exits clean.
	if err := shutdown(); err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
	if !strings.Contains(stdout.String(), "clean shutdown") {
		t.Fatalf("daemon did not report a clean shutdown; stdout: %s", stdout.String())
	}
}

func TestServeFlagErrors(t *testing.T) {
	var stdout, stderr strings.Builder
	stop := make(chan os.Signal)
	if err := run([]string{"-no-such-flag"}, &stdout, &stderr, stop); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"positional"}, &stdout, &stderr, stop); err == nil {
		t.Fatal("positional argument accepted")
	}
	if err := run([]string{"-addr", "256.256.256.256:99999"}, &stdout, &stderr, stop); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}

// TestHTTPServerIsBounded checks that the daemon's server carries its
// connection bounds: without them one client that never finishes its
// headers holds a connection, and its goroutine, forever.
func TestHTTPServerIsBounded(t *testing.T) {
	h := http.NotFoundHandler()
	hs := newHTTPServer(h)
	if hs.Handler == nil {
		t.Fatal("server has no handler")
	}
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	if hs.MaxHeaderBytes != maxHeaderBytes || hs.MaxHeaderBytes <= 0 {
		t.Errorf("MaxHeaderBytes = %d, want %d", hs.MaxHeaderBytes, maxHeaderBytes)
	}
}
