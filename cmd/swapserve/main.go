// Command swapserve is the campaign job server: experiments as a service.
// It accepts job specs over HTTP (injection campaigns, performance sweeps,
// headline tables, CPI stacks, differential verification), runs them on a
// shared deterministic engine pool behind a bounded tenant-fair queue,
// streams progress, and persists every submission, shard checkpoint, and
// result to a write-ahead log under -state — a restarted (or SIGKILLed)
// server resumes unfinished campaigns from their last completed shard and
// reproduces the uninterrupted results byte for byte.
//
// Usage:
//
//	swapserve -state /var/lib/swapserve
//	swapserve -addr :9090 -state ./state -max-jobs 4 -workers 8
//
//	curl -s localhost:9090/jobs -d '{"kind":"campaign","tuples":10000}'
//	curl -s localhost:9090/jobs/<id>            # status
//	curl -s localhost:9090/jobs/<id>/events     # SSE progress stream
//	curl -s localhost:9090/jobs/<id>/result     # final payload
//	curl -s localhost:9090/metrics              # Prometheus text
//	curl -s localhost:9090/timeseries           # metric history ring
//	curl -s localhost:9090/healthz              # liveness
//	curl -s localhost:9090/readyz               # readiness (WAL/queue/runner)
//	curl -s localhost:9090/buildinfo            # binary build metadata
//
// The HTTP surface is the obs server (/metrics, /runs, /debug/pprof) with
// the jobs API layered on: /runs reports the queue and job table next to
// the engine progress counters. Diagnostics go to stderr as structured
// logs (-log-format json|text, -log-level debug|info|warn|error); every
// job-scoped line carries trace_id/job_id/tenant, so one
// `grep <trace_id>` isolates a campaign end to end.
package main

import (
	"flag"
	"fmt"
	"os"

	"swapcodes/internal/cli"
	"swapcodes/internal/jobs"
	"swapcodes/internal/obs"
)

func main() {
	f := cli.Flags{LogFormat: "json"}
	f.Register(flag.CommandLine, "workers", "metrics", "trace", "metrics-interval", "log-level", "log-format")
	addr := flag.String("addr", "127.0.0.1:9090", "HTTP listen address (use :0 for an ephemeral port)")
	state := flag.String("state", "swapserve-state", "state directory for the WAL and content-addressed cache")
	maxJobs := flag.Int("max-jobs", 2, "jobs executing concurrently; queued jobs wait")
	queueCap := flag.Int("queue-cap", 64, "queued-job bound; submissions beyond it are rejected")
	flag.Parse()

	if err := run(&f, *addr, *state, *maxJobs, *queueCap); err != nil {
		fmt.Fprintln(os.Stderr, "swapserve:", err)
		os.Exit(1)
	}
}

// run serves until SIGINT or SIGTERM, between the lifecycle's Start and its
// deferred End, which drains HTTP, closes the service (checkpointing running
// campaigns at shard granularity) and flushes -metrics and -trace, on a
// signal and during a panic unwind alike.
func run(f *cli.Flags, addr, state string, maxJobs, queueCap int) (err error) {
	r, err := f.Start(true)
	if err != nil {
		return err
	}
	defer r.End(&err)

	svc, err := jobs.New(jobs.Options{
		StateDir:          state,
		Workers:           f.Workers,
		MaxConcurrentJobs: maxJobs,
		QueueCap:          queueCap,
		Recorder:          r.Rec,
		Logger:            r.Log,
	})
	if err != nil {
		return err
	}
	r.OnEnd(svc.Close)

	srv, err := r.Serve(addr, obs.ServerConfig{
		Runs:     func() any { return svc.Snapshot() },
		Register: svc.Register,
		Ready:    svc.ReadyChecks,
	})
	if err != nil {
		return err
	}
	// The listen line goes to stdout on purpose: with -addr :0 it is how
	// clients (and the e2e harness) discover the bound port.
	fmt.Printf("swapserve: listening on %s (state %s)\n", srv.URL(), state)

	r.Progress(func() string {
		snap := svc.Snapshot()
		return fmt.Sprintf("swapserve: queue=%d states=%v engine: %s",
			snap.Queue, snap.States, snap.Engine.String())
	})

	<-r.Ctx.Done()
	r.Log.Info("shutdown signal received")
	return nil
}
