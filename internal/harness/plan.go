package harness

import (
	"context"
	"time"

	"swapcodes/internal/arith"
	"swapcodes/internal/engine"
	"swapcodes/internal/faultsim"
	"swapcodes/internal/obs"
	"swapcodes/internal/trace"
)

// InjectionPlan is the shard-level decomposition of a Figure 10/11 campaign:
// every (unit, shard) pair as an independently runnable, independently
// seeded unit of work. Run executes a plan's shards in one flat Map; the
// job server's campaign jobs execute the same shards through
// engine.MapIndices, skipping the ones whose results it already holds from
// a previous, interrupted run. Because shard i of unit u depends only on
// (Seed, u, i) and the operand trace — never on other shards — the two
// execution styles produce bit-identical injection streams.
type InjectionPlan struct {
	Units  []*arith.Unit
	Tuples int
	Seed   int64

	samples   [][][]uint64
	campaigns []*faultsim.ShardedCampaign
	shards    []ShardRef
}

// ShardRef names one shard of one unit's campaign within a plan.
type ShardRef struct {
	Unit  int `json:"unit"`
	Shard int `json:"shard"`
}

// ShardResult is the output of one executed shard.
type ShardResult struct {
	Injections []faultsim.Injection
	Stats      faultsim.EvalStats
}

// PlanInjection seeds a campaign plan over the given units from an operand
// trace (which may be empty: Sample then synthesizes tuples
// deterministically). The per-unit sample and campaign seeds match
// RunInjectionCtx exactly, so planned and monolithic runs are
// interchangeable.
func PlanInjection(units []*arith.Unit, tr *trace.OperandTrace, tuples int, seed int64) *InjectionPlan {
	p := &InjectionPlan{Units: units, Tuples: tuples, Seed: seed}
	p.samples = make([][][]uint64, len(units))
	p.campaigns = make([]*faultsim.ShardedCampaign, len(units))
	for i, u := range units {
		p.samples[i] = tr.Sample(u.Name, tuples, seed+int64(i))
		p.campaigns[i] = &faultsim.ShardedCampaign{Unit: u, MasterSeed: seed + 100 + int64(i)}
		for s := 0; s < p.campaigns[i].NumShards(len(p.samples[i])); s++ {
			p.shards = append(p.shards, ShardRef{Unit: i, Shard: s})
		}
	}
	return p
}

// Shards lists every (unit, shard) pair of the plan in canonical order —
// the index space RunShard accepts.
func (p *InjectionPlan) Shards() []ShardRef { return p.shards }

// RunShard executes shard j of the plan (an index into Shards), recording
// per-shard observability on the pool exactly as the monolithic driver
// does. The result is a pure function of the plan's trace, seed, and j.
func (p *InjectionPlan) RunShard(ctx context.Context, pool *engine.Pool, j int) (ShardResult, error) {
	ref := p.shards[j]
	u, sh := ref.Unit, ref.Shard
	start := pool.Recorder().Now()
	inj, st, err := p.campaigns[u].RunShard(ctx, sh, p.samples[u])
	if err == nil {
		pool.Tracker().AddItems(int64(len(inj)))
		lo := sh * faultsim.DefaultShardSize
		n := min(lo+faultsim.DefaultShardSize, len(p.samples[u])) - lo
		faultsim.RecordShard(pool.Recorder(), obs.FromContext(ctx), p.Units[u].Name, sh, start, n, inj, st)
	}
	return ShardResult{Injections: inj, Stats: st}, err
}

// Run executes every shard of the plan and assembles the result. The
// (unit, shard) pairs run as one flat job list rather than one Map per
// unit, so a six-unit campaign saturates the pool even when single units
// have few shards. On cancellation the result holds the whole shards that
// finished, with the error.
func (p *InjectionPlan) Run(ctx context.Context, pool *engine.Pool) (*InjectionResult, error) {
	start := time.Now()
	shards, err := engine.Map(ctx, pool, len(p.shards), func(ctx context.Context, j int) (ShardResult, error) {
		return p.RunShard(ctx, pool, j)
	})
	return p.Assemble(shards, time.Since(start).Seconds()), err
}

// Assemble merges per-shard results — positionally aligned with Shards,
// missing shards as zero values — into the InjectionResult the renderers
// and headline tables consume. Concatenation is in canonical shard order,
// so the merge is independent of execution order and of which shards were
// replayed from a checkpoint.
func (p *InjectionPlan) Assemble(shards []ShardResult, campaignSeconds float64) *InjectionResult {
	res := &InjectionResult{Tuples: p.Tuples, CampaignSeconds: campaignSeconds}
	for _, u := range p.Units {
		res.Units = append(res.Units, &UnitInjection{Unit: u})
	}
	for j, out := range shards {
		if j >= len(p.shards) {
			break
		}
		u := p.shards[j].Unit
		res.Units[u].Injections = append(res.Units[u].Injections, out.Injections...)
		res.Units[u].Evals = res.Units[u].Evals.Merge(out.Stats)
	}
	return res
}
