package obs

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestServerGracefulShutdown: a request in flight when Shutdown is called
// must complete with its full body, the listener must be closed to new
// connections afterwards, and a second Shutdown must return immediately
// with the same result instead of blocking on the drained error channel.
func TestServerGracefulShutdown(t *testing.T) {
	reg := NewRegistry()
	entered := make(chan struct{})
	release := make(chan struct{})
	runs := func() any {
		close(entered)
		<-release
		return map[string]string{"slow": "payload"}
	}
	s, err := StartConfigured(ServerConfig{Addr: "127.0.0.1:0", Registry: reg, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get(s.URL() + "/runs")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- result{body: string(body), err: err}
	}()
	<-entered // the request is now in flight inside the handler

	down := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		down <- s.Shutdown(ctx)
	}()
	// Graceful shutdown must wait for the in-flight request; give the
	// shutdown a moment to start draining before releasing the handler.
	time.Sleep(20 * time.Millisecond)
	close(release)

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", r.err)
	}
	if !strings.Contains(r.body, "slow") {
		t.Errorf("in-flight request body truncated: %q", r.body)
	}
	if err := <-down; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The listener is closed: new connections must be refused.
	if conn, err := net.DialTimeout("tcp", s.Addr(), time.Second); err == nil {
		conn.Close()
		t.Error("listener still accepting connections after shutdown")
	}

	// Idempotence: a second Shutdown returns promptly (no blocked channel
	// receive) with the remembered result.
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("second shutdown: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second Shutdown blocked")
	}
}

// TestFileFlusherOnce: the metrics flush runs exactly once however many exit
// paths reach it — the second Flush must not rewrite (or truncate) the file.
func TestFileFlusherOnce(t *testing.T) {
	rec := NewRecorder()
	rec.Registry().Counter("flush.test").Add(3)
	path := filepath.Join(t.TempDir(), "metrics.json")
	var logged atomic.Int32
	f := &FileFlusher{Rec: rec, MetricsPath: path, Logf: func(string) { logged.Add(1) }}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate both the registry and the file; a second Flush must change
	// neither the file contents nor the write count.
	rec.Registry().Counter("flush.test").Add(100)
	if err := os.WriteFile(path, append(first, []byte("sentinel")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(second), "sentinel") {
		t.Error("second Flush rewrote the file; flush must run exactly once")
	}
	if n := logged.Load(); n != 1 {
		t.Errorf("flush logged %d writes, want exactly 1", n)
	}
}

// TestFileFlusherPanicPath: a deferred Flush during a panic unwind still
// writes the file — the crashed-run-keeps-its-observations contract.
func TestFileFlusherPanicPath(t *testing.T) {
	rec := NewRecorder()
	rec.Registry().Counter("panic.test").Inc()
	path := filepath.Join(t.TempDir(), "metrics.json")
	f := &FileFlusher{Rec: rec, MetricsPath: path}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		defer f.Flush()
		panic("boom")
	}()
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("deferred flush did not write during panic unwind: %v", err)
	}
	if !strings.Contains(string(body), "panic.test") {
		t.Errorf("flushed metrics missing counter: %s", body)
	}
}

// TestFileFlusherNoop: nil recorder and empty paths are a silent no-op so
// CLIs can construct the flusher unconditionally.
func TestFileFlusherNoop(t *testing.T) {
	var f FileFlusher
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	f2 := &FileFlusher{Rec: NewRecorder()}
	if err := f2.Flush(); err != nil {
		t.Fatal(err)
	}
}
