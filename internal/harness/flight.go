package harness

// Flight-recorder integration: arming the simulator's black box on harness
// launches, surfacing the bundle alongside the error, and deterministically
// re-running a bundle to reproduce the recorded failure (DESIGN.md
// Section 14).

import (
	"context"
	"encoding/json"
	"fmt"

	"swapcodes/internal/compiler"
	"swapcodes/internal/obs/simprof"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

// FlightError wraps a launch or verification failure together with the
// flight-recorder bundle captured at the moment of failure. Callers that
// persist bundles (the job server, swapsim -flight) unwrap it with
// errors.As; everyone else sees the underlying error unchanged.
type FlightError struct {
	// Workload and Scheme identify the failing run in CLI/API names.
	Workload string
	Scheme   string
	// Bundle is the JSONL black box (simprof.WriteBundle format).
	Bundle []byte
	// Err is the underlying launch or verification error.
	Err error
}

// Error implements error, passing the underlying message through.
func (e *FlightError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As chains.
func (e *FlightError) Unwrap() error { return e.Err }

// flightWrap attaches the recorder's bundle to err when the recorder
// actually captured a failure; otherwise err passes through untouched
// (context cancellations, compile errors).
func flightWrap(fr *simprof.FlightRecorder, workload string, s compiler.Scheme, err error) error {
	if fr == nil || !fr.Failed() {
		return err
	}
	return &FlightError{Workload: workload, Scheme: SchemeName(s), Bundle: fr.Bundle(), Err: err}
}

// SchemeByStamp resolves a scheme from either its CLI/API name ("swap-ecc")
// or the display stamp the compiler writes into isa.Kernel.Scheme
// ("Swap-ECC") — flight bundles carry the latter, flags the former.
func SchemeByStamp(stamp string) (compiler.Scheme, error) {
	if s, err := SchemeByName(stamp); err == nil {
		return s, nil
	}
	if stamp == "" || stamp == "none" {
		return compiler.Baseline, nil
	}
	for _, s := range schemeNames {
		if s.String() == stamp {
			return s, nil
		}
	}
	return 0, fmt.Errorf("harness: no scheme matches stamp %q", stamp)
}

// Replay is the result of re-running a flight bundle: the replay's own
// recorder (for stream-level comparison against the original) and the error
// the replayed launch produced.
type Replay struct {
	// Recorder holds the decision streams captured by the replay run.
	Recorder *simprof.FlightRecorder
	// Stats is the replayed launch's statistics (nil if the launch
	// failed before finalizing).
	Stats *sm.Stats
	// Err is the error the replayed launch reproduced (nil means the
	// failure did not reproduce).
	Err error
}

// ReplayFlight deterministically re-runs the launch a bundle recorded:
// same workload, same scheme, the exact sm.Config frozen in the bundle. A
// launch is a deterministic function of those three, so the replay
// reproduces the recorded failure at the same cycle with identical decision
// streams. Fields a bundle's config carries that sm.Config no longer has
// (such as a retired worker count) are ignored.
func ReplayFlight(ctx context.Context, b *simprof.Bundle) (*Replay, error) {
	if b == nil {
		return nil, fmt.Errorf("harness: nil flight bundle")
	}
	if b.Meta.Workload == "" {
		return nil, fmt.Errorf("harness: flight bundle carries no workload identity; cannot rebuild device memory")
	}
	w, err := workloads.ByName(b.Meta.Workload)
	if err != nil {
		return nil, fmt.Errorf("harness: replay: %w", err)
	}
	scheme, err := SchemeByStamp(b.Meta.Scheme)
	if err != nil {
		return nil, fmt.Errorf("harness: replay: %w", err)
	}
	k, err := compiler.Apply(w.Kernel, scheme)
	if err != nil {
		return nil, fmt.Errorf("harness: replay: %w", err)
	}
	var cfg sm.Config
	if len(b.Meta.Config) == 0 {
		return nil, fmt.Errorf("harness: flight bundle carries no sm.Config")
	}
	if err := json.Unmarshal(b.Meta.Config, &cfg); err != nil {
		return nil, fmt.Errorf("harness: replay: decoding sm.Config: %w", err)
	}
	g := w.NewGPU(cfg)
	fr := simprof.NewFlightRecorder(0)
	fr.Annotate(b.Meta.Workload, b.Meta.Seed)
	g.Flight = fr
	st, lerr := g.LaunchContext(ctx, k)
	if lerr == nil {
		// The recorded failure may have been a verification mismatch, not
		// a launch error; reproduce that path too.
		if verr := w.Verify(g); verr != nil {
			fr.Fail(k.Name, k.Scheme, st.Cycles, cfg, "output verification failed: "+verr.Error())
			lerr = verr
		}
	}
	return &Replay{Recorder: fr, Stats: st, Err: lerr}, nil
}
