package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestServerEndpoints: a started server must expose the registry on
// /metrics (Prometheus text), the runs closure on /runs (JSON), and the
// pprof index, then shut down cleanly.
func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(Name("sm.cycles", "kernel", "mm", "scheme", "none")).Add(42)
	runs := func() any { return map[string]int{"done": 3} }
	s, err := StartConfigured(ServerConfig{Addr: "127.0.0.1:0", Registry: reg, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, s.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if want := `sm_cycles{kernel="mm",scheme="none"} 42`; !strings.Contains(body, want) {
		t.Errorf("/metrics missing %q:\n%s", want, body)
	}

	code, body = get(t, s.URL()+"/runs")
	if code != http.StatusOK {
		t.Fatalf("/runs status = %d", code)
	}
	var decoded map[string]int
	if err := json.Unmarshal([]byte(body), &decoded); err != nil {
		t.Fatalf("/runs is not JSON: %v\n%s", err, body)
	}
	if decoded["done"] != 3 {
		t.Errorf("/runs = %v, want done=3", decoded)
	}

	code, body = get(t, s.URL()+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status=%d, body lacks profile index", code)
	}
	code, _ = get(t, s.URL()+"/debug/pprof/heap")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/heap status = %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServerLiveUpdates: /metrics must serve the registry's current values,
// not a start-time snapshot — counters bumped while the server runs (from
// another goroutine, as in a real run) appear on the next scrape.
func TestServerLiveUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ticks")
	s, err := StartConfigured(ServerConfig{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			c.Inc()
		}
	}()
	wg.Wait()
	_, body := get(t, s.URL()+"/metrics")
	if !strings.Contains(body, "ticks 100\n") {
		t.Errorf("scrape does not reflect live counter:\n%s", body)
	}

	// /runs with a nil closure must still answer (JSON null).
	code, body := get(t, s.URL()+"/runs")
	if code != http.StatusOK || strings.TrimSpace(body) != "null" {
		t.Errorf("/runs with nil closure: status=%d body=%q", code, body)
	}
}

// TestServerAddrInUse: starting on a taken port must fail with an error,
// not a panic or a silent success.
func TestServerAddrInUse(t *testing.T) {
	reg := NewRegistry()
	s, err := StartConfigured(ServerConfig{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if _, err := StartConfigured(ServerConfig{Addr: s.Addr(), Registry: reg}); err == nil {
		t.Error("second server on the same port did not fail")
	}
}
