package obs

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
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
