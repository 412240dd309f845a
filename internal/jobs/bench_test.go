package jobs

import (
	"io"
	"log/slog"
	"testing"

	"swapcodes/internal/obs"
)

// benchRunCampaign pushes one campaign job through svc and blocks until it
// reaches a terminal state. The seed varies per iteration so the
// content-addressed result cache never short-circuits the work being timed.
func benchRunCampaign(b *testing.B, svc *Service, seed int64) {
	b.Helper()
	id, err := svc.Submit(Spec{Kind: KindCampaign, Tuples: 256, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	j, ok := svc.Get(id)
	if !ok {
		b.Fatalf("job %s missing", id)
	}
	ch, unsub := j.Subscribe()
	defer unsub()
	for range ch {
	}
	if st := j.Status(); st.State != StateDone {
		b.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
	}
}

// BenchmarkServiceTelemetry measures what the service's observability stack
// costs on a campaign-evaluator-class workload: "bare" runs the service with
// logging and tracing disabled, "telemetry" runs it with a live Recorder and
// a JSON slog logger at the default info level. Telemetry is meant to stay
// within 5% of bare; compare the two sub-benchmarks of one run.
func BenchmarkServiceTelemetry(b *testing.B) {
	run := func(b *testing.B, svc *Service) {
		defer svc.Close()
		// One untimed run warms the process's unit set (harness.Units) and
		// the engine pool so neither variant is charged for one-time setup.
		benchRunCampaign(b, svc, 999)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchRunCampaign(b, svc, int64(1000+i))
		}
	}
	b.Run("bare", func(b *testing.B) {
		svc, err := New(Options{Workers: 0})
		if err != nil {
			b.Fatal(err)
		}
		run(b, svc)
	})
	b.Run("telemetry", func(b *testing.B) {
		rec := obs.NewRecorder()
		log, err := obs.NewLogger(io.Discard, "json", slog.LevelInfo, rec.Registry())
		if err != nil {
			b.Fatal(err)
		}
		svc, err := New(Options{Workers: 0, Recorder: rec, Logger: log})
		if err != nil {
			b.Fatal(err)
		}
		run(b, svc)
	})
}
