package harness

import (
	"context"
	"strings"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/engine"
)

func TestCSVExports(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps")
	}
	perf, err := RunPerfCtxOpts(context.Background(), engine.New(0), []compiler.Scheme{compiler.SwapECC}, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	csv := perf.CSV()
	if !strings.HasPrefix(csv, "workload,scheme,") {
		t.Error("perf CSV header")
	}
	if strings.Count(csv, "\n") != 16 { // header + 15 workloads x 1 scheme
		t.Errorf("perf CSV rows: %d", strings.Count(csv, "\n"))
	}
	if !strings.Contains(csv, "lavaMD,Swap-ECC,") {
		t.Error("perf CSV content")
	}

	mix := RunCodeMix(perf)
	mcsv := mix.CSV()
	if !strings.Contains(mcsv, "Duplicated") || !strings.Contains(mcsv, "snap,Swap-ECC") {
		t.Error("mix CSV content")
	}

	inj, err := RunInjectionCtx(context.Background(), engine.New(0), 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	icsv := inj.CSV()
	for _, want := range []string{"severity:1 bit", "sdc:Mod-127", "ALL,sdc:Parity"} {
		if !strings.Contains(icsv, want) {
			t.Errorf("injection CSV missing %q", want)
		}
	}

	pr, err := RunPower(context.Background(), engine.New(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pr.CSV(), "snap,SW-Dup,") {
		t.Error("power CSV content")
	}

	if !strings.Contains(Table4CSV(Table4()), "Move-Propagate,7,") {
		t.Error("table4 CSV content")
	}
}

func TestInterThreadFailureRenderedAsFails(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	perf, err := RunPerfCtxOpts(context.Background(), engine.New(0), []compiler.Scheme{compiler.InterThread}, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := perf.Render("t")
	if !strings.Contains(out, "fails") {
		t.Error("failures not rendered")
	}
	if !strings.Contains(perf.CSV(), ",fails") {
		t.Error("failures not in CSV")
	}
}

func TestChartRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	perf, err := RunPerfCtxOpts(context.Background(), engine.New(0), []compiler.Scheme{compiler.SwapECC, compiler.InterThread}, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := perf.Chart("t", 120)
	if !strings.Contains(out, "#") || !strings.Contains(out, "lavaMD") || !strings.Contains(out, "(fails)") {
		t.Errorf("chart incomplete:\n%s", out)
	}
}
