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
	// sweep row: the row's launches share one recorder, reset before each.
	// Measured on 2026-10-19 on a 2-vCPU Xeon VM (Go 1.24.0), one Figure 12
	// sweep (15 rows, 75 launches, unverified) allocated 31.2 MB armed
	// against 20.1 MB disarmed, 149 KB more per armed launch, where a
	// recorder per launch had cost 682 KB more (71.2 MB a sweep). With a
	// recorder per launch, at commit 3436a8a, swapbench's
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
	Cells *CellStore
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

// rowWork is what resolving a sweep row computed: the cells it launched,
// and the scheduler rounds those launches ran (IssueCycles + IdleRounds).
type rowWork struct {
	launched int
	rounds   int64
}

// runWorkload resolves one workload's row, baseline first, through
// opt.Cells, and reports the work it did.
func runWorkload(ctx context.Context, w *workloads.Workload, schemes []compiler.Scheme, verify bool, opt Options) (*PerfRow, rowWork, error) {
	row := &PerfRow{Workload: w.Name,
		Stats: make(map[compiler.Scheme]*sm.Stats),
		Errs:  make(map[compiler.Scheme]string)}
	cfg := opt.smConfig()
	var work rowWork
	// The row's launches share one flight recorder, made by the first. A
	// failed launch ends the row, so its recorder, whose bundle the error
	// carries, is never reused.
	var fr *simprof.FlightRecorder
	for _, s := range append([]compiler.Scheme{compiler.Baseline}, schemes...) {
		out, ran, err := opt.Cells.resolve(ctx, CellKey(w.Name, s, cfg, verify),
			func(ctx context.Context) (cellOutcome, error) {
				if opt.FlightRecord && fr == nil {
					fr = simprof.NewFlightRecorder(0)
				}
				return launchCell(ctx, w, s, verify, opt, fr)
			})
		if ran {
			work.launched++
			if out.Stats != nil {
				work.rounds += out.Stats.IssueCycles + out.Stats.IdleRounds
			}
		}
		switch {
		case err != nil:
			return nil, work, err
		case out.Refused != "":
			row.Errs[s] = out.Refused
		case s == compiler.Baseline:
			row.Baseline = out.Stats
		default:
			row.Stats[s] = out.Stats
		}
	}
	return row, work, nil
}

// launchCell computes one cell: compile the scheme, launch it on a freshly
// set-up GPU and, when asked, check the output against the host reference.
// A non-nil fr is reset and armed on the launch.
func launchCell(ctx context.Context, w *workloads.Workload, s compiler.Scheme, verify bool, opt Options, fr *simprof.FlightRecorder) (cellOutcome, error) {
	k, err := compiler.Apply(w.Kernel, s)
	if err != nil {
		return cellOutcome{Refused: err.Error()}, nil
	}
	g := w.NewGPU(opt.smConfig())
	if fr != nil {
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
