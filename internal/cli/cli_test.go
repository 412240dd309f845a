package cli

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swapcodes/internal/obs"
)

// TestEndOrder: End stops the progress line, then the listener, then runs
// the hooks, then writes each -metrics/-trace file once, and last ends the
// run's context. The hook sees the first three done and the flush not yet;
// the flushed metrics hold what the hook counted.
func TestEndOrder(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{Metrics: filepath.Join(dir, "m.json"), Trace: filepath.Join(dir, "t.json"), MetricsInterval: time.Hour}
	var stderr bytes.Buffer
	r, err := f.start(false, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := r.Serve("127.0.0.1:0", obs.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r.Progress(func() string { return "progress" })
	hooked := false
	r.OnEnd(func() error {
		hooked = true
		if !strings.Contains(stderr.String(), "progress\n") {
			t.Error("hook ran before the final progress line")
		}
		if conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second); err == nil {
			conn.Close()
			t.Error("hook ran while the listener still accepted connections")
		}
		if _, err := os.Stat(f.Metrics); err == nil {
			t.Error("hook ran after the flush")
		}
		r.Rec.Registry().Counter("hook.ran").Inc()
		return errors.New("hook failed")
	})
	if r.Ctx.Err() != nil {
		t.Fatal("run context ended before End")
	}
	r.End(&err)
	if !hooked || err == nil || err.Error() != "hook failed" {
		t.Errorf("hooked %v, End's error %v; want the hook's error", hooked, err)
	}
	if r.Ctx.Err() == nil {
		t.Error("run context still live after End")
	}
	body, err := os.ReadFile(f.Metrics)
	if err != nil || !strings.Contains(string(body), "hook.ran") {
		t.Errorf("metrics file (%v) lacks the hook's counter:\n%s", err, body)
	}
	raw, err := os.ReadFile(f.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(raw); err != nil {
		t.Errorf("trace file does not validate: %v", err)
	}
	if n := strings.Count(stderr.String(), `msg="artifact written"`); n != 2 {
		t.Errorf("%d artifact lines, want one per file:\n%s", n, stderr.String())
	}
}

// TestEndKeepsEarlierError: End reports its own failure only when the run
// had none.
func TestEndKeepsEarlierError(t *testing.T) {
	r, err := (&Flags{}).start(false, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	r.OnEnd(func() error { return errors.New("hook failed") })
	runErr := errors.New("run failed")
	r.End(&runErr)
	if runErr.Error() != "run failed" {
		t.Errorf("End replaced the run's error with %v", runErr)
	}
}

// TestEndFlushesOnPanic: a deferred End during a panic unwind still writes
// the metrics file — a crashed run keeps its observations.
func TestEndFlushesOnPanic(t *testing.T) {
	f := &Flags{Metrics: filepath.Join(t.TempDir(), "metrics.json")}
	r, err := f.start(false, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	r.Rec.Registry().Counter("panic.test").Inc()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		defer r.End(&err)
		panic("boom")
	}()
	body, err := os.ReadFile(f.Metrics)
	if err != nil {
		t.Fatalf("deferred End did not write during panic unwind: %v", err)
	}
	if !strings.Contains(string(body), "panic.test") {
		t.Errorf("flushed metrics missing counter: %s", body)
	}
}

// TestEndWithoutOutputs: with no output asking for one there is no
// recorder, and End is a silent no-op; a recorder the command asks for
// with no output path writes nothing either.
func TestEndWithoutOutputs(t *testing.T) {
	for _, record := range []bool{false, true} {
		var stderr bytes.Buffer
		r, err := (&Flags{}).start(record, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		if (r.Rec != nil) != record {
			t.Errorf("record=%v: recorder %v", record, r.Rec)
		}
		r.End(&err)
		if err != nil || stderr.Len() != 0 {
			t.Errorf("record=%v: End = %v, stderr %q; want a silent no-op", record, err, stderr.String())
		}
	}
}

// TestProgress: an interval the run never reaches still prints one
// final line at End; a zero interval never calls the line at all.
func TestProgress(t *testing.T) {
	var stderr bytes.Buffer
	r, err := (&Flags{MetricsInterval: time.Hour}).start(false, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	r.Progress(func() string { return "tick" })
	r.End(&err)
	if got := stderr.String(); got != "tick\n" {
		t.Errorf("progress output = %q, want one final line", got)
	}

	r, err = (&Flags{}).start(false, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	r.Progress(func() string { t.Error("line called with zero interval"); return "" })
	r.End(&err)
}

// TestTimeoutEndsContext: -timeout ends the run's context.
func TestTimeoutEndsContext(t *testing.T) {
	r, err := (&Flags{Timeout: 20 * time.Millisecond}).start(false, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.End(&err)
	select {
	case <-r.Ctx.Done():
		if !errors.Is(r.Ctx.Err(), context.DeadlineExceeded) {
			t.Errorf("context ended with %v, want the deadline", r.Ctx.Err())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("-timeout 20ms did not end the run's context")
	}
}

// TestStartRefusesBadLogFlags: an unknown -log-level or -log-format fails
// Start, before anything is set up.
func TestStartRefusesBadLogFlags(t *testing.T) {
	for _, f := range []Flags{{LogLevel: "loud"}, {LogFormat: "xml"}} {
		if _, err := f.start(false, &bytes.Buffer{}); err == nil {
			t.Errorf("%+v: Start accepted it", f)
		}
	}
}
