// Package harness drives the experiments that regenerate every table and
// figure of the paper's evaluation (Section IV-VI): performance sweeps over
// the workload suite (Figures 12, 15, 16), dynamic instruction breakdowns
// (Figure 13), power/energy estimation (Figure 14), gate-level error
// injection campaigns (Figures 10, 11), and the hardware-overhead and
// qualitative tables (Tables I-IV).
package harness

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"swapcodes/internal/compiler"
	"swapcodes/internal/obs/simprof"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

// Fig12Schemes are the protection schemes of Figure 12.
func Fig12Schemes() []compiler.Scheme {
	return []compiler.Scheme{compiler.SWDup, compiler.SwapECC,
		compiler.SwapPredictAddSub, compiler.SwapPredictMAD}
}

// Fig16Schemes are the projected future-predictor organizations.
func Fig16Schemes() []compiler.Scheme {
	return []compiler.Scheme{compiler.SwapPredictMAD, compiler.SwapPredictOtherFxP,
		compiler.SwapPredictFpAddSub, compiler.SwapPredictFpMAD}
}

// Fig15Schemes are the inter-thread duplication variants.
func Fig15Schemes() []compiler.Scheme {
	return []compiler.Scheme{compiler.InterThread, compiler.InterThreadNoCheck}
}

// Options carries sweep-wide simulator knobs that select no experiment.
type Options struct {
	// FlightRecord arms a simprof flight recorder on every launch. On a
	// launch or verification failure the run's error is wrapped in a
	// *FlightError carrying the JSONL black-box bundle. While nothing
	// fails it costs one ring store per scheduler decision, and the rings
	// (657 KB on the default four-scheduler SM) are allocated once per
	// launch running at the same time: a sweep keeps a free list of
	// recorders, each reset before its next launch. Measured on 2026-10-19
	// on a 2-vCPU Xeon VM (Go 1.24.0), one Figure 12 sweep (75 launches,
	// unverified, two workers) allocated 23.6–24.5 MB armed against
	// 20.3–21.1 MB disarmed, 45 KB more per armed launch, where a recorder
	// per sweep row had cost 143 KB more and a recorder per launch 682 KB.
	// With a recorder per launch, at commit 3436a8a, swapbench's
	// simprof.flight_overhead_frac (swap-ecc, armed against disarmed) read
	// +1.2% on lavaMD, +6.1% on bfs and +8.9% on needle.
	FlightRecord bool
	// MemModel is passed to sm.Config.MemModel for every launch: "" or
	// "off" keeps the seed flat-latency timing, "sectored" arms the
	// L1/MSHR/L2/DRAM hierarchy and populates the mem.* CPI components.
	// Functional results are identical either way; only timing moves.
	MemModel string
	// Cells, when set, resolves every perf-sweep cell through the store:
	// a cell it holds is not launched again, and a cell two sweeps need at
	// once is launched once. Nil launches every cell.
	Cells *Store
}

// smConfig is the launches' sm.Config. MemModel takes its one spelling,
// so CellKey sees one per model; the launch refuses an invalid one.
func (o Options) smConfig() sm.Config {
	cfg := sm.DefaultConfig()
	cfg.MemModel = o.MemModel
	if model, err := sm.ParseMemModel(o.MemModel); err == nil {
		cfg.MemModel = model
	}
	return cfg
}

// PerfRow holds one workload's results across schemes.
type PerfRow struct {
	Workload string
	Baseline *sm.Stats
	Stats    map[compiler.Scheme]*sm.Stats
	Errs     map[compiler.Scheme]string
}

// Slowdown returns the fractional slowdown of a scheme over baseline (0.21
// = 21%), or NaN-free -1 when the scheme failed on this workload.
func (r *PerfRow) Slowdown(s compiler.Scheme) float64 {
	st, ok := r.Stats[s]
	if !ok {
		return -1
	}
	return float64(st.Cycles-r.Baseline.Cycles) / float64(r.Baseline.Cycles)
}

// PerfResult is a full performance sweep.
type PerfResult struct {
	Schemes []compiler.Scheme
	Rows    []*PerfRow
}

// recorders is a sweep's free list of flight recorders. A launch takes one,
// or makes one when the list is empty, and gives it back when it succeeds,
// so a sweep makes one recorder per launch that runs at the same time, and
// launchCell resets the one it takes. A failed launch keeps its recorder:
// the *FlightError it returns carries that recorder's bundle.
type recorders struct {
	mu   sync.Mutex
	free []*simprof.FlightRecorder
}

// get takes a recorder off the list, or makes one.
func (r *recorders) get() *simprof.FlightRecorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		fr := r.free[n-1]
		r.free = r.free[:n-1]
		return fr
	}
	return simprof.NewFlightRecorder(0)
}

// put gives a recorder back to the list.
func (r *recorders) put(fr *simprof.FlightRecorder) {
	r.mu.Lock()
	r.free = append(r.free, fr)
	r.mu.Unlock()
}

// launchCell computes one cell: compile the scheme, launch it on a freshly
// set-up GPU and, when asked, check the output against the host reference.
// Under opt.FlightRecord the launch is armed with a recorder from frs,
// reset first, which goes back to frs when the cell succeeds.
func launchCell(ctx context.Context, w *workloads.Workload, s compiler.Scheme, verify bool, opt Options, frs *recorders) (cellOutcome, error) {
	k, err := compiler.Apply(w.Kernel, s)
	if err != nil {
		return cellOutcome{Refused: err.Error()}, nil
	}
	g := w.NewGPU(opt.smConfig())
	var fr *simprof.FlightRecorder
	if opt.FlightRecord {
		fr = frs.get()
		fr.Reset()
		fr.Annotate(w.Name, 0)
		g.Flight = fr
	}
	st, err := g.LaunchContext(ctx, k)
	if err != nil {
		return cellOutcome{}, flightWrap(fr, w.Name, s, fmt.Errorf("harness: %s/%v: %w", w.Name, s, err))
	}
	if verify {
		if err := w.Verify(g); err != nil {
			if fr != nil {
				// A differential mismatch is a failure the simulator
				// cannot see from inside; stamp the black box here.
				fr.Fail(k.Name, k.Scheme, st.Cycles, opt.smConfig(),
					"output verification failed: "+err.Error())
			}
			return cellOutcome{}, flightWrap(fr, w.Name, s, fmt.Errorf("harness: %s/%v: %w", w.Name, s, err))
		}
	}
	if fr != nil {
		frs.put(fr)
	}
	return cellOutcome{Stats: st}, nil
}

// MeanSlowdown is the arithmetic-mean slowdown over the workloads where the
// scheme ran (the paper's "arithmetic mean slowdown").
func (r *PerfResult) MeanSlowdown(s compiler.Scheme) float64 {
	sum, n := 0.0, 0
	for _, row := range r.Rows {
		if sd := row.Slowdown(s); sd >= -0.5 && row.Stats[s] != nil {
			sum += sd
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WorstSlowdown returns the maximum slowdown and the workload it occurs on.
func (r *PerfResult) WorstSlowdown(s compiler.Scheme) (float64, string) {
	worst, name := -1.0, ""
	for _, row := range r.Rows {
		if row.Stats[s] == nil {
			continue
		}
		if sd := row.Slowdown(s); sd > worst {
			worst, name = sd, row.Workload
		}
	}
	return worst, name
}

// Render prints a slowdown table.
func (r *PerfResult) Render(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-9s", "program")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, " %12.12s", s.String())
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s", row.Workload)
		for _, s := range r.Schemes {
			if msg, bad := row.Errs[s]; bad {
				_ = msg
				fmt.Fprintf(&b, " %12s", "fails")
				continue
			}
			fmt.Fprintf(&b, " %11.1f%%", 100*row.Slowdown(s))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-9s", "MEAN")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, " %11.1f%%", 100*r.MeanSlowdown(s))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-9s", "WORST")
	for _, s := range r.Schemes {
		sd, name := r.WorstSlowdown(s)
		fmt.Fprintf(&b, " %5.0f%%(%s)", 100*sd, shorten(name, 5))
	}
	b.WriteString("\n")
	return b.String()
}

func shorten(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
