// Package campaign turns the in-memory fault-injection loop of internal/fi
// into a durable, restartable, shardable job — the orchestration layer a
// production-scale campaign service needs. Run drives every campaign that
// runs in one process — the CLIs, the experiments and the public
// epvf.Campaign, which runs its plan in memory; internal/dist workers run
// their leased shards on the same fi.Runner.
//
//   - A Plan splits a campaign into deterministic shards whose identity is
//     a content hash of (module IR, golden trace shape, configuration), so
//     any process holding the same module and plan computes bit-identical
//     results for any shard, in any order.
//   - Results stream into an append-only JSONL log with fsync'd shard
//     checkpoints; Run resumes mid-campaign after a crash or ctrl-C by
//     replaying the log and executing only the missing run indices.
//   - Adaptive early stopping watches the Wilson 95% CI half-widths of the
//     crash and SDC rates (internal/stats) and ends a campaign once both
//     are within a configured ±ε, recording how many runs were saved.
//   - fi.Runner.Run executes each shard's runs on a bounded worker pool
//     with per-index RNG streams (fi.TargetSeed); its callback logs every
//     record and reports progress (runs/sec, ETA, outcome tallies).
package campaign

import (
	"fmt"

	"repro/internal/content"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/ir"
)

// DefaultShardSize is the run count per shard when PlanConfig leaves it
// zero: small enough that checkpoints and stop checks are frequent, large
// enough that per-shard bookkeeping is negligible.
const DefaultShardSize = 128

// PlanConfig describes the campaign to plan.
type PlanConfig struct {
	// Benchmark is a human-readable workload label recorded in the plan
	// and log; it does not enter the content hash (the module IR does).
	Benchmark string
	// Runs is the total number of injections the plan covers.
	Runs int
	// ShardSize is the run count per shard; zero means DefaultShardSize.
	ShardSize int
	// FI carries the injection parameters (Seed, JitterWindow, FaultBits,
	// HangFactor, Align); the plan records all five. Its Engine is not
	// part of the plan: RunOptions.Engine picks the engine per invocation.
	FI fi.Config
}

// Plan is the deterministic description of a campaign. Two processes that
// build a plan from the same module, golden run and configuration get the
// same ID and therefore agree on every shard's targets.
type Plan struct {
	// ID is the hex content hash identifying the campaign.
	ID string `json:"id"`
	// Benchmark is the workload label.
	Benchmark string `json:"benchmark"`
	// Runs is the total planned injection count.
	Runs int64 `json:"runs"`
	// ShardSize is the run count per shard (the checkpoint and stop-check
	// granularity).
	ShardSize int64 `json:"shard_size"`
	// Injection parameters (mirrors fi.Config).
	Seed         int64   `json:"seed"`
	JitterWindow uint64  `json:"jitter_window"`
	HangFactor   float64 `json:"hang_factor"`
	FaultBits    int     `json:"fault_bits"`
	Align        int     `json:"align"`
	// TraceEvents and TotalBits pin the golden trace shape the targets
	// were sampled from.
	TraceEvents int64 `json:"trace_events"`
	TotalBits   int64 `json:"total_bits"`
}

// NewPlan hashes the module and configuration into a campaign plan.
// golden must be a recorded run of m.
func NewPlan(m *ir.Module, golden *interp.Result, cfg PlanConfig) (*Plan, error) {
	if cfg.Runs <= 0 {
		return nil, fmt.Errorf("campaign: plan needs a positive run count, got %d", cfg.Runs)
	}
	if golden.Trace == nil {
		return nil, fmt.Errorf("campaign: golden result has no recorded trace")
	}
	// The sampler alone counts the bit population: a whole fi.Runner would
	// also compile the module to bytecode, which planning never runs.
	bits := fi.NewSampler(golden.Trace).TotalBits()
	if bits == 0 {
		return nil, fmt.Errorf("fi: module %q has no injectable register bits", m.Name)
	}
	shard := int64(cfg.ShardSize)
	if shard <= 0 {
		shard = DefaultShardSize
	}
	p := &Plan{
		Benchmark:    cfg.Benchmark,
		Runs:         int64(cfg.Runs),
		ShardSize:    shard,
		Seed:         cfg.FI.Seed,
		JitterWindow: cfg.FI.JitterWindow,
		HangFactor:   cfg.FI.HangFactor,
		FaultBits:    cfg.FI.FaultBits,
		Align:        int(cfg.FI.Align),
		TraceEvents:  golden.Trace.NumEvents(),
		TotalBits:    bits,
	}
	p.ID = contentHash(m, p)
	return p, nil
}

// contentHash digests everything that determines shard contents: the full
// IR print of the module, the golden trace shape, and every injection
// parameter. The benchmark label is excluded so renaming a workload does
// not invalidate cached results.
func contentHash(m *ir.Module, p *Plan) string {
	h := content.NewHasher("epvf-campaign-v1")
	h.Printf("runs=%d shard=%d seed=%d jitter=%d hang=%g bits=%d align=%d\n",
		p.Runs, p.ShardSize, p.Seed, p.JitterWindow, p.HangFactor, p.FaultBits, p.Align)
	h.Printf("trace=%d totalbits=%d\n", p.TraceEvents, p.TotalBits)
	h.Write([]byte(ir.Print(m)))
	return h.Sum()
}

// FIConfig reconstructs the fi.Config the plan was built from.
func (p *Plan) FIConfig() fi.Config {
	return fi.Config{
		Seed:         p.Seed,
		JitterWindow: p.JitterWindow,
		HangFactor:   p.HangFactor,
		FaultBits:    p.FaultBits,
		Align:        interp.AlignPolicy(p.Align),
	}
}

// NumShards returns the shard count (the last shard may be short).
func (p *Plan) NumShards() int {
	return int((p.Runs + p.ShardSize - 1) / p.ShardSize)
}

// ShardRange returns shard i's run-index range [lo, hi).
func (p *Plan) ShardRange(i int) (lo, hi int64) {
	lo = int64(i) * p.ShardSize
	hi = lo + p.ShardSize
	if hi > p.Runs {
		hi = p.Runs
	}
	return lo, hi
}

// Compatible reports whether another plan describes the same campaign
// (same content hash and run geometry).
func (p *Plan) Compatible(q *Plan) error {
	if q == nil {
		return fmt.Errorf("campaign: no plan")
	}
	if p.ID != q.ID {
		return fmt.Errorf("campaign: plan mismatch: log has %s, want %s (module, trace or config changed)", q.ID, p.ID)
	}
	if p.Runs != q.Runs || p.ShardSize != q.ShardSize {
		return fmt.Errorf("campaign: plan %s geometry mismatch: %d/%d runs, %d/%d shard size",
			p.ID, q.Runs, p.Runs, q.ShardSize, p.ShardSize)
	}
	return nil
}
