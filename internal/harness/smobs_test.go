package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/obs"
	"swapcodes/internal/obs/simprof"
	"swapcodes/internal/sm"
	"swapcodes/internal/workloads"
)

// smObsCase is one pinned launch of TestSMObsGolden.
type smObsCase struct {
	workload string
	scheme   compiler.Scheme
	memModel string
	// fault < 0 runs without injection; otherwise the fault's dynamic
	// instruction index, lane and bit.
	fault     int64
	lane, bit int
}

// smObsCases are the four launches the golden pins: a plain Swap-ECC run,
// one under the sectored hierarchy, a Swap-ECC fault with five pipeline
// DUEs, and an SW-Dup fault that fires one BPT trap.
var smObsCases = []smObsCase{
	{workload: "lavaMD", scheme: compiler.SwapECC, fault: -1},
	{workload: "bfs", scheme: compiler.SwapECC, memModel: "sectored", fault: -1},
	{workload: "bprop", scheme: compiler.SwapECC, fault: 49, lane: 3, bit: 21},
	{workload: "mm", scheme: compiler.SWDup, fault: 120, lane: 3, bit: 9},
}

// observedLaunch runs one case with the SM observation armed on a fresh
// recorder and returns the recorder and the launch's stats.
func observedLaunch(t *testing.T, c smObsCase) (*obs.Recorder, *sm.Stats) {
	t.Helper()
	w, err := workloads.ByName(c.workload)
	if err != nil {
		t.Fatal(err)
	}
	k := compiler.MustApply(w.Kernel, c.scheme)
	cfg := sm.DefaultConfig()
	cfg.MemModel = c.memModel
	if c.fault >= 0 {
		cfg.ECC = true
	}
	g := w.NewGPU(cfg)
	if c.fault >= 0 {
		g.Fault = &sm.FaultPlan{TargetDynInstr: c.fault, Lane: c.lane, BitMask: 1 << uint(c.bit)}
	}
	g.Flight = simprof.NewFlightRecorder(LaunchRings)
	st, err := g.Launch(k)
	if err != nil {
		t.Fatalf("%s/%v: %v", c.workload, c.scheme, err)
	}
	rec := obs.NewRecorder()
	if err := ObserveLaunch(rec, g, k, st); err != nil {
		t.Fatal(err)
	}
	return rec, st
}

// smObsDump is the pinned form of one launch's observation: every sm.*
// registry series and every event of the launch's sm:<kernel> process.
type smObsDump struct {
	Launch  string       `json:"launch"`
	Metrics []obs.Metric `json:"metrics"`
	Events  []obs.Event  `json:"events"`
}

func dumpSMObs(name string, rec *obs.Recorder) smObsDump {
	d := smObsDump{Launch: name}
	for _, m := range rec.Registry().Snapshot() {
		if strings.HasPrefix(m.Name, "sm.") {
			d.Metrics = append(d.Metrics, m)
		}
	}
	pid := int64(-1)
	for _, e := range rec.Events() {
		if e.Ph == "M" && e.Name == "process_name" && strings.HasPrefix(e.Args["name"].(string), "sm:") {
			pid = e.PID
		}
		if e.PID == pid {
			d.Events = append(d.Events, e)
		}
	}
	return d
}

// TestSMObsGolden pins the SM's registry series and trace rows for four
// launches byte for byte against testdata/smobs.golden.
func TestSMObsGolden(t *testing.T) {
	var dumps []smObsDump
	for _, c := range smObsCases {
		rec, st := observedLaunch(t, c)
		name := c.workload + "/" + SchemeName(c.scheme)
		if c.memModel != "" {
			name += "/" + c.memModel
		}
		if c.fault >= 0 {
			name += "/fault"
		}
		switch {
		case c.workload == "bprop" && st.PipelineDUEs != 5:
			t.Errorf("%s: %d pipeline DUEs, want 5", name, st.PipelineDUEs)
		case c.workload == "mm" && !st.Trapped:
			t.Errorf("%s: no BPT trap", name)
		}
		dumps = append(dumps, dumpSMObs(name, rec))
	}
	got, err := json.MarshalIndent(dumps, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "smobs.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("SM observation differs from %s (%d bytes, want %d)", path, len(got), len(want))
	}
}
