package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"swapcodes/internal/engine"
	"swapcodes/internal/harness"
	"swapcodes/internal/jobs"
)

//go:embed golden.json
var goldenJSON []byte

// goldenServeBatches is how many seed-1 serve batches golden.json pins.
const goldenServeBatches = 6

// golden pins the reproduction's outputs for seed 1. Fig12 and MemCPI do
// not depend on the seed; Campaign holds the digest of every op seed a
// seed-1 run draws, Serve the payload digest of each seed-1 job in schedule
// order, and Slowdown the Figure 12 slowdown of every workload x scheme,
// which checks the perf jobs of any seed.
type golden struct {
	Seed     int64                         `json:"seed"`
	Fig12    string                        `json:"fig12"`
	MemCPI   string                        `json:"memcpi"`
	Campaign []string                      `json:"campaign"`
	Serve    []string                      `json:"serve"`
	Slowdown map[string]map[string]float64 `json:"slowdown"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digest is the digest op i of a closed-loop workload must produce, or ""
// where golden.json does not pin it.
func (g *golden) digest(workload string, seed int64, i int) string {
	switch workload {
	case "fig12":
		return g.Fig12
	case "memcpi":
		return g.MemCPI
	case "campaign":
		if seed == g.Seed && i%campaignSeedCycle < len(g.Campaign) {
			return g.Campaign[i%campaignSeedCycle]
		}
	}
	return ""
}

// verifySlowdown checks one sweep slowdown against the golden table.
func (g *golden) verifySlowdown(workload, scheme string, got float64) error {
	want, ok := g.Slowdown[workload][scheme]
	if !ok {
		return fmt.Errorf("golden has no slowdown for %s/%s", workload, scheme)
	}
	if got != want {
		return fmt.Errorf("%s/%s slowdown %v, golden %v", workload, scheme, got, want)
	}
	return nil
}

// writeGoldenFile recomputes every digest golden.json holds from the
// current code and writes the file. Run it only when a change is meant to
// move simulated numbers, and say so in the change.
func writeGoldenFile(ctx context.Context, cfg config, path string) error {
	pool := engine.New(cfg.nproc)
	g := &golden{Seed: 1, Slowdown: map[string]map[string]float64{}}
	perf, err := harness.RunPerfCtxOpts(ctx, pool, harness.Fig12Schemes(), true, harness.Options{})
	if err != nil {
		return err
	}
	g.Fig12 = digest([]byte(renderFig12(perf)))
	for _, row := range perf.Rows {
		g.Slowdown[row.Workload] = map[string]float64{}
		for _, s := range perf.Schemes {
			g.Slowdown[row.Workload][harness.SchemeName(s)] = row.Slowdown(s)
		}
	}
	out, err := memcpiOp(ctx, pool, 0)
	if err != nil {
		return err
	}
	g.MemCPI = digest([]byte(out))
	op := campaignOp(g.Seed)
	for i := 0; i < campaignSeedCycle; i++ {
		out, err := op(ctx, pool, i)
		if err != nil {
			return err
		}
		g.Campaign = append(g.Campaign, digest([]byte(out)))
	}

	// Serve payloads are pure functions of their specs, so an in-memory
	// service running the schedule one job at a time reproduces them.
	svc, err := jobs.New(jobs.Options{Workers: cfg.nproc})
	if err != nil {
		return err
	}
	defer svc.Close()
	specPool, sched := serveSchedule(g.Seed, goldenServeBatches)
	for _, spec := range specPool {
		if _, err := runJob(ctx, svc, spec); err != nil {
			return err
		}
	}
	for _, j := range sched {
		raw, err := runJob(ctx, svc, j.spec)
		if err != nil {
			return err
		}
		g.Serve = append(g.Serve, digest(raw))
	}

	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runJob submits a spec to an in-process service and returns its payload.
func runJob(ctx context.Context, svc *jobs.Service, spec jobs.Spec) ([]byte, error) {
	id, err := svc.Submit(spec)
	if err != nil {
		return nil, err
	}
	j, _ := svc.Get(id)
	for !j.State().Terminal() {
		if err := sleepUntil(ctx, time.Now().Add(5*time.Millisecond)); err != nil {
			return nil, err
		}
	}
	if st := j.Status(); st.State != jobs.StateDone {
		return nil, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
	}
	return j.Result(), nil
}
