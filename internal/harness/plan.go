package harness

import (
	"context"

	"swapcodes/internal/arith"
	"swapcodes/internal/engine"
	"swapcodes/internal/faultsim"
	"swapcodes/internal/obs"
	"swapcodes/internal/trace"
)

// InjectionPlan is the shard-level decomposition of a Figure 10/11 campaign:
// every (unit, shard) pair as an independently runnable, independently
// seeded unit of work. Stream runs a plan's shards as its operand trace
// fills, skipping the ones whose results the caller already holds (the job
// server's checkpoints). Because shard i of unit u depends only on
// (Seed, u, i) and unit u's operand tuples — never on other shards or
// units — every execution order gives bit-identical injection streams.
type InjectionPlan struct {
	Units  []*arith.Unit
	Tuples int
	Seed   int64

	tr        *trace.OperandTrace
	samples   [][][]uint64
	campaigns []*faultsim.ShardedCampaign
	shards    []ShardRef
	byUnit    [][]int // each unit's indices into shards, in shard order
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

// newPlan lays out the shards of a campaign over units whose tuples come
// from tr. Every unit samples exactly tuples tuples, so the layout is known
// before tr holds any.
func newPlan(units []*arith.Unit, tr *trace.OperandTrace, tuples int, seed int64) *InjectionPlan {
	p := &InjectionPlan{Units: units, Tuples: tuples, Seed: seed, tr: tr}
	p.samples = make([][][]uint64, len(units))
	p.campaigns = make([]*faultsim.ShardedCampaign, len(units))
	p.byUnit = make([][]int, len(units))
	for i, u := range units {
		p.campaigns[i] = &faultsim.ShardedCampaign{Unit: u, MasterSeed: seed + 100 + int64(i)}
		for s := 0; s < p.campaigns[i].NumShards(tuples); s++ {
			p.byUnit[i] = append(p.byUnit[i], len(p.shards))
			p.shards = append(p.shards, ShardRef{Unit: i, Shard: s})
		}
	}
	return p
}

// sample draws unit i's tuples from the trace, whose tuples for that unit
// must be final.
func (p *InjectionPlan) sample(i int) {
	p.samples[i] = p.tr.Sample(p.Units[i].Name, p.Tuples, p.Seed+int64(i))
}

// PlanInjection seeds a campaign plan over the given units from a finished
// operand trace (which may be empty: Sample then synthesizes tuples
// deterministically). The per-unit sample and campaign seeds are the ones
// NewCampaign's plans use, so the two run the same shards.
func PlanInjection(units []*arith.Unit, tr *trace.OperandTrace, tuples int, seed int64) *InjectionPlan {
	p := newPlan(units, tr, tuples, seed)
	for i := range units {
		p.sample(i)
	}
	return p
}

// NewCampaign plans a campaign over the process's unit set (Units) and an
// empty operand trace of tuples tuples per unit, for Stream to fill and run.
func NewCampaign(tuples int, seed int64) *InjectionPlan {
	return newPlan(Units(), trace.NewOperandTrace(tuples), tuples, seed)
}

// Shards lists every (unit, shard) pair of the plan in canonical order —
// the index space RunShard accepts.
func (p *InjectionPlan) Shards() []ShardRef { return p.shards }

// RunShard executes shard j of the plan (an index into Shards), recording
// per-shard observability on the pool. The result is a pure function of
// the plan's seed, its unit's tuples and j. The unit's tuples must have been
// sampled (PlanInjection, or Stream's release of the unit).
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
