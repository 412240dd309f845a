package memmodel

import (
	"math/rand"
	"testing"
)

// BenchmarkMemModelAccess replays the two synthetic load streams of the
// benchmark's memory probe (cmd/swapbench memProbes) through AccessLoad on
// DefaultConfig, one warp load every four cycles: coalesced (four
// consecutive sectors per load, streaming over a 2^15-sector footprint)
// and scattered (32 random sectors per load over 2^21, far beyond the L2).
// It reports ns/sector beside ns/op, where an op is the whole stream on a
// fresh hierarchy, whose construction is not timed.
func BenchmarkMemModelAccess(b *testing.B) {
	const loads = 20000
	rng := rand.New(rand.NewSource(1))
	streams := map[string][][]int32{}
	for i := 0; i < loads; i++ {
		co := make([]int32, 4)
		for j := range co {
			co[j] = int32((4*i + j) % (1 << 15))
		}
		sc := make([]int32, 32)
		for j := range sc {
			sc[j] = rng.Int31n(1 << 21)
		}
		streams["coalesced"] = append(streams["coalesced"], co)
		streams["scattered"] = append(streams["scattered"], sc)
	}
	for _, name := range []string{"coalesced", "scattered"} {
		stream := streams[name]
		sectors := 0
		for _, ld := range stream {
			sectors += len(ld)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := New(DefaultConfig())
				b.StartTimer()
				for j, ld := range stream {
					h.AccessLoad(int64(4*j), ld)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sectors), "ns/sector")
		})
	}
}
