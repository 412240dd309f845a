// External test package: the golden test renders an engine.Progress through
// the /runs endpoint, and engine imports obs — only an external package can
// close that loop without an import cycle.
package obs_test

import (
	"context"
	"io"
	"net/http"
	"os"
	"testing"
	"time"

	"swapcodes/internal/engine"
	"swapcodes/internal/obs"
)

// TestRunsGoldenShape pins the /runs wire format for the canonical payload
// (an engine.Progress): the exact JSON bytes are frozen in
// testdata/runs_golden.json, so a field rename, tag change, or encoder
// switch fails loudly instead of silently breaking scrapers, and both
// endpoints must declare their Content-Type explicitly.
func TestRunsGoldenShape(t *testing.T) {
	reg := obs.NewRegistry()
	snap := engine.Progress{Queued: 2, Running: 1, Done: 7, Items: 4096,
		Elapsed: 1500 * time.Millisecond}
	s, err := obs.StartConfigured(obs.ServerConfig{Addr: "127.0.0.1:0", Registry: reg,
		Runs: func() any { return snap }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	resp, err := http.Get(s.URL() + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resp.Header.Get("Content-Type"), "application/json; charset=utf-8"; got != want {
		t.Errorf("/runs Content-Type = %q, want %q", got, want)
	}
	golden, err := os.ReadFile("testdata/runs_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(golden) {
		t.Errorf("/runs body diverged from golden:\ngot:\n%s\nwant:\n%s", body, golden)
	}

	resp, err = http.Get(s.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got, want := resp.Header.Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; got != want {
		t.Errorf("/metrics Content-Type = %q, want %q", got, want)
	}
}
