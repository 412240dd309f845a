package sm

import (
	"testing"

	"swapcodes/internal/obs/simprof"
)

// TestPartitionAssignmentBalance pins the launchCTA placement rule: each
// warp goes to the currently least-loaded partition (ties to the lowest
// index), so within a single residency wave the per-partition warp counts
// never spread by more than one and every warp lands somewhere. Observed
// through each partition's flight-recorder ring, which logs one resident
// decision per placement.
func TestPartitionAssignmentBalance(t *testing.T) {
	const n = 1 << 12
	cases := []struct {
		scheds, grid, cta int
	}{
		{2, 3, 128},
		{2, 1, 32},
		{4, 5, 128},
		{4, 2, 96}, // 3 warps/CTA: odd totals across 4 partitions
		{8, 7, 64},
		{8, 2, 256},
	}
	for _, tc := range cases {
		k := vecAddKernel(n, tc.grid, tc.cta)
		warpsPerCTA := (tc.cta + 31) / 32
		total := tc.grid * warpsPerCTA

		cfg := DefaultConfig()
		cfg.Schedulers = tc.scheds
		g := NewGPU(cfg, 3*n+64)
		g.Flight = simprof.NewFlightRecorder(1 << 16)
		st, err := g.Launch(k)
		if err != nil {
			t.Fatalf("scheds=%d grid=%d cta=%d: %v", tc.scheds, tc.grid, tc.cta, err)
		}
		if len(st.PartitionInstrs) != tc.scheds {
			t.Fatalf("scheds=%d: stats have %d partitions", tc.scheds, len(st.PartitionInstrs))
		}
		var sum, min, max int64
		min = int64(total) + 1
		counts := make([]int64, tc.scheds)
		for i := range counts {
			ring := g.Flight.Partition(i)
			if ring.Lost() > 0 {
				t.Fatalf("scheds=%d: partition %d's ring lost %d decisions", tc.scheds, i, ring.Lost())
			}
			for _, d := range ring.Snapshot() {
				if d.Kind == simprof.KindResident {
					counts[i]++
				}
			}
			sum += counts[i]
			if counts[i] < min {
				min = counts[i]
			}
			if counts[i] > max {
				max = counts[i]
			}
		}
		if sum != int64(total) {
			t.Errorf("scheds=%d grid=%d cta=%d: %d warps assigned, launched %d",
				tc.scheds, tc.grid, tc.cta, sum, total)
		}
		// Single wave (the whole grid is resident at once), so the
		// least-loaded rule bounds the spread at one warp.
		if max-min > 1 {
			t.Errorf("scheds=%d grid=%d cta=%d: assignment spread %d (counts %v), want <=1",
				tc.scheds, tc.grid, tc.cta, max-min, counts)
		}
		// Ties break to the lowest index: the extra warps of an uneven
		// split sit in a prefix of the partition list.
		for i := 1; i < len(counts); i++ {
			if counts[i] > counts[i-1] {
				t.Errorf("scheds=%d grid=%d cta=%d: counts %v not non-increasing (tie-break to lowest index)",
					tc.scheds, tc.grid, tc.cta, counts)
				break
			}
		}
	}
}
