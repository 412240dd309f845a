// Package cli holds what the swapsim, experiments and swapserve commands
// share: the one declaration of their common flags, and the one lifecycle
// every run of theirs starts and ends through (Flags.Start, Run.End).
package cli

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"swapcodes/internal/obs"
)

// Flags are the shared flags' values. A command declares the ones it takes
// with Register; the others keep their zero values.
type Flags struct {
	Workers         int
	MemModel        string
	Timeout         time.Duration
	Metrics         string
	Trace           string
	MetricsInterval time.Duration
	Serve           string
	Submit          string
	Tenant          string
	LogLevel        string
	LogFormat       string
}

// defaultLogFormat is -log-format's default, and the format of a command
// that has no such flag.
const defaultLogFormat = "text"

// shutdownGrace bounds how long End waits for the listener's in-flight
// requests.
const shutdownGrace = 5 * time.Second

// Register declares the named shared flags on fs. -log-format defaults to
// f.LogFormat when that is set beforehand (swapserve logs JSON), else to
// text. An unknown name panics.
func (f *Flags) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "workers":
			fs.IntVar(&f.Workers, name, 0, "engine worker count (0 = all cores)")
		case "mem-model":
			fs.StringVar(&f.MemModel, name, "", "SM memory timing model of the perf sweeps: off (flat latency, the default) or sectored (L1/MSHR/L2/DRAM hierarchy)")
		case "timeout":
			fs.DurationVar(&f.Timeout, name, 0, "cancel the run after this long (0 = no limit); what finished is reported")
		case "metrics":
			fs.StringVar(&f.Metrics, name, "", "write the run's metrics to this file when it ends (.json, .csv, anything else: aligned table)")
		case "trace":
			fs.StringVar(&f.Trace, name, "", "write a Chrome trace-event JSON file when the run ends, loadable in Perfetto / chrome://tracing")
		case "metrics-interval":
			fs.DurationVar(&f.MetricsInterval, name, 0, "print a progress line to stderr at this interval (e.g. 5s)")
		case "serve":
			fs.StringVar(&f.Serve, name, "", "serve live observability on this address (GET /metrics Prometheus text, /runs JSON, /debug/pprof)")
		case "submit":
			fs.StringVar(&f.Submit, name, "", "run as jobs on the swapserve at this base URL (e.g. http://127.0.0.1:9090) instead of locally")
		case "tenant":
			fs.StringVar(&f.Tenant, name, "", "tenant fairness key for -submit (empty = default tenant)")
		case "log-level":
			fs.StringVar(&f.LogLevel, name, "info", "stderr diagnostics level: debug, info, warn, error")
		case "log-format":
			fs.StringVar(&f.LogFormat, name, cmp.Or(f.LogFormat, defaultLogFormat), "stderr diagnostics format: json or text")
		default:
			panic("cli: no shared flag -" + name)
		}
	}
}

// Run is one run of a command, from Flags.Start to Run.End.
type Run struct {
	// Ctx ends on SIGINT, SIGTERM or -timeout.
	Ctx context.Context
	// Rec records the run when an output asks for a recorder (-metrics,
	// -trace, -metrics-interval, -serve) or the command always records;
	// otherwise it is nil.
	Rec *obs.Recorder
	// Log writes the run's diagnostics to stderr, per -log-level and
	// -log-format.
	Log *slog.Logger

	flags    *Flags
	stderr   io.Writer
	stop     context.CancelFunc
	progress func()
	srv      *obs.Server
	hooks    []func() error
}

// Start begins a run; record asks for a recorder whatever the flags say.
// Defer End right after it.
func (f *Flags) Start(record bool) (*Run, error) { return f.start(record, os.Stderr) }

func (f *Flags) start(record bool, stderr io.Writer) (*Run, error) {
	level, err := obs.ParseLogLevel(f.LogLevel)
	if err != nil {
		return nil, err
	}
	r := &Run{flags: f, stderr: stderr}
	if record || f.Metrics != "" || f.Trace != "" || f.MetricsInterval > 0 || f.Serve != "" {
		r.Rec = obs.NewRecorder()
	}
	if r.Log, err = obs.NewLogger(stderr, cmp.Or(f.LogFormat, defaultLogFormat), level, r.Rec.Registry()); err != nil {
		return nil, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	r.Ctx, r.stop = ctx, stop
	if f.Timeout > 0 {
		var cancel context.CancelFunc
		r.Ctx, cancel = context.WithTimeout(ctx, f.Timeout)
		r.stop = func() { cancel(); stop() }
	}
	return r, nil
}

// Serve starts the listener on addr: the run's registry, cfg's handlers and
// a request log, until End shuts it down.
func (r *Run) Serve(addr string, cfg obs.ServerConfig) (*obs.Server, error) {
	cfg.Addr, cfg.Registry, cfg.Logger = addr, r.Rec.Registry(), r.Log
	srv, err := obs.StartConfigured(cfg)
	if err != nil {
		return nil, err
	}
	r.srv = srv
	r.Log.Info("serving observability", slog.String("url", srv.URL()))
	return srv, nil
}

// Progress prints line() to stderr every -metrics-interval, and once more
// when End stops it. Without an interval it prints nothing.
func (r *Run) Progress(line func() string) {
	interval := r.flags.MetricsInterval
	if interval <= 0 {
		return
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fmt.Fprintln(r.stderr, line())
			case <-done:
				return
			}
		}
	}()
	r.progress = func() {
		close(done)
		<-exited
		fmt.Fprintln(r.stderr, line())
	}
}

// OnEnd adds a hook that End calls after the listener stops and before the
// flush (swapserve closes its job service there). Hooks run in the order
// added.
func (r *Run) OnEnd(hook func() error) { r.hooks = append(r.hooks, hook) }

// Logf logs a formatted line at info level, for jobs.Client.RunJob.
func (r *Run) Logf(format string, args ...any) { r.Log.Info(fmt.Sprintf(format, args...)) }

// End ends the run in one fixed order: the progress line, the listener, the
// OnEnd hooks, the -metrics/-trace flush, and last the signal handler and
// -timeout. Deferred right after Start, it runs on every exit path, a panic
// unwind included, so a cancelled, failed or crashed run still leaves its
// observations. Its first error replaces a nil *errp.
func (r *Run) End(errp *error) {
	keep := func(err error) {
		if err != nil && *errp == nil {
			*errp = err
		}
	}
	if r.progress != nil {
		r.progress()
	}
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		keep(r.srv.Shutdown(ctx))
		cancel()
	}
	for _, hook := range r.hooks {
		keep(hook())
	}
	keep(r.flush())
	r.stop()
}

// flush writes the -metrics and then the -trace file from the recorder.
func (r *Run) flush() error {
	if r.Rec == nil {
		return nil
	}
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{r.flags.Metrics, func(w io.Writer) error { return r.Rec.Registry().WriteMetrics(w, r.flags.Metrics) }},
		{r.flags.Trace, r.Rec.WriteTrace},
	} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return err
		}
		if err := out.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		r.Log.Info("artifact written", slog.String("path", out.path))
	}
	return nil
}
