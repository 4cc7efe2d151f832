package campaign

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/attr"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// RunOptions controls one engine invocation over a plan.
type RunOptions struct {
	// LogPath is the durable JSONL result log. Empty runs the campaign
	// in memory only (no persistence, no resume).
	LogPath string
	// Workers bounds the injection worker pool; <= 0 means 1.
	Workers int
	// Epsilon, when positive, enables adaptive early stopping: the
	// campaign ends once the Wilson 95% CI half-widths of both the crash
	// rate and the SDC rate are <= Epsilon.
	Epsilon float64
	// MinRuns is the floor below which adaptive stopping never triggers;
	// zero defaults to two shards' worth.
	MinRuns int64
	// Budget caps the number of new runs this invocation executes; zero
	// is unlimited. A budgeted invocation that exhausts its budget leaves
	// a resumable log behind.
	Budget int64
	// Shards restricts execution to the given shard indices (for manual
	// sharding across processes); nil runs every shard. Adaptive stopping
	// still evaluates on the contiguous completed prefix only.
	Shards []int
	// Progress, when non-nil, receives periodic progress lines.
	Progress io.Writer
	// Monitor, when non-nil, receives live tallies (outcome counters,
	// latency histograms, shard gauges) for its obs registry; progress
	// lines render from the same registry, so the CLI output, /metrics
	// and the /campaign status view can never disagree. Nil allocates a
	// private monitor.
	Monitor *Monitor
	// Ledger, when non-nil, receives every record (executed and replayed)
	// for prediction-vs-ground-truth attribution; its snapshot is appended
	// to the log at checkpoints so `campaign attr` and /attr work without
	// re-analysing the module. It cannot change results.
	Ledger *attr.Ledger
	// Engine selects the fi execution engine: "" or fi.EngineVM runs
	// injections on the bytecode VM, fi.EngineWalker forces the walker
	// (only the differential tests and the benchmark do). Bit-identical
	// either way, so it is not part of plan identity and can differ
	// between runs, resumes, and distributed workers of one campaign.
	Engine string
	// Tracer, when non-nil, enables correlated tracing: a deterministic
	// campaign root span (TraceContext(plan.ID)), one span per executed
	// shard, and bounded injection exemplar spans (slowest K + one per
	// crash class), all persisted to the log at shard checkpoints so
	// `campaign trace` can rebuild the tree. Deterministic span IDs make
	// re-execution (resume, requeue) dedup-safe. Nil costs one pointer
	// check per shard.
	Tracer *obs.Tracer
}

// Result aggregates one engine invocation.
type Result struct {
	Plan *Plan
	// Records holds the campaign's effective records in run-index order:
	// the full plan when complete, the converged prefix when adaptively
	// stopped, or every available record otherwise.
	Records    []fi.Record
	Counts     map[fi.Outcome]int
	CrashTypes map[interp.ExcKind]int
	// Executed counts runs performed by this invocation; Replayed counts
	// runs recovered from the log.
	Executed int64
	Replayed int64
	// Stopped is set when adaptive stopping ended the campaign early;
	// Saved is the number of planned runs it avoided.
	Stopped bool
	Saved   int64
	Reason  string
	// Complete reports whether the campaign needs no further runs.
	Complete bool
	// Interrupted is set when the invocation's context was cancelled:
	// execution stopped at a clean boundary, the log (if any) was
	// checkpointed, and the campaign is resumable.
	Interrupted bool
	Elapsed     time.Duration
}

// N returns the number of runs in the result. Callers that need to
// distinguish "no runs" from "rate zero" check N() > 0 before trusting
// Rate.
func (r *Result) N() int { return len(r.Records) }

// Rate returns the fraction of runs with the given outcome (zero for an
// empty result; use N to tell the two apart).
func (r *Result) Rate(o fi.Outcome) float64 {
	if r.N() == 0 {
		return 0
	}
	return float64(r.Counts[o]) / float64(r.N())
}

// ExcTypeShare returns the fraction of crashes with the given exception
// kind — the rows of Table II.
func (r *Result) ExcTypeShare(kind interp.ExcKind) float64 {
	total := r.Counts[fi.OutcomeCrash]
	if total == 0 {
		return 0
	}
	return float64(r.CrashTypes[kind]) / float64(total)
}

// Run executes (or continues) the planned campaign. When opts.LogPath
// names an existing log for the same plan, completed runs are replayed and
// only missing run indices execute — interrupt and resume converge on
// results bitwise-identical to an uninterrupted run, because every run's
// RNG stream depends only on (plan seed, run index).
//
// Cancelling ctx stops execution at a clean run boundary: in-flight runs
// finish, the log is checkpointed, and the partial Result comes back with
// Interrupted set (and no error) so the caller can report and resume.
func Run(ctx context.Context, m *ir.Module, golden *interp.Result, plan *Plan, opts RunOptions) (_ *Result, err error) {
	start := time.Now()
	if got := contentHash(m, plan); got != plan.ID {
		return nil, fmt.Errorf("campaign: plan %s does not match module %q (content hash %s) — regenerate the plan",
			plan.ID, m.Name, got)
	}
	shardOrder := opts.Shards
	if shardOrder == nil {
		shardOrder = make([]int, plan.NumShards())
		for i := range shardOrder {
			shardOrder[i] = i
		}
	}
	for _, s := range shardOrder {
		if s < 0 || s >= plan.NumShards() {
			return nil, fmt.Errorf("campaign: shard %d out of range [0, %d)", s, plan.NumShards())
		}
	}
	fcfg := plan.FIConfig()
	fcfg.Engine = opts.Engine // execution speed only; never part of plan identity
	runner, err := fi.NewRunner(m, golden, fcfg)
	if err != nil {
		return nil, err
	}
	if n := golden.Trace.NumEvents(); n != plan.TraceEvents {
		return nil, fmt.Errorf("campaign: golden trace has %d events, plan %s expects %d", n, plan.ID, plan.TraceEvents)
	}
	// Refused silently under layout jitter; results are identical either
	// way, so this never needs to be fatal or plan-visible.
	if _, err := runner.EnableSnapshots(snapshot.Config{}); err != nil {
		return nil, err
	}

	st := &state{
		plan:    plan,
		records: make(map[int64]fi.Record),
	}
	var log *DurableLog
	if opts.LogPath != "" {
		var d *LogData
		if log, d, err = OpenDurableLog(opts.LogPath, plan); err != nil {
			return nil, err
		}
		defer log.Close()
		st.records = d.Records
		st.stopped = d.Stopped
		st.saved = d.Saved
		st.reason = d.Reason
	}
	replayed := int64(len(st.records))
	if opts.Ledger != nil {
		// Replayed records feed the ledger too, so resume/replay converges
		// on the same tallies as an uninterrupted run (observation order is
		// irrelevant: every cell field is a commutative sum).
		for _, rec := range st.records {
			opts.Ledger.Observe(rec)
		}
	}

	minRuns := opts.MinRuns
	if minRuns <= 0 {
		minRuns = 2 * plan.ShardSize
	}
	mon := opts.Monitor
	if mon == nil {
		mon = NewMonitor(nil)
	}
	if runner.SnapshotsEnabled() {
		mon.setSnapshotSource(runner.SnapshotView)
	}
	mon.setEngineSource(runner.EngineStats)
	replayedCounts := make(map[fi.Outcome]int)
	for _, rec := range st.records {
		replayedCounts[rec.Outcome]++
	}
	mon.begin(plan, opts.Progress, replayedCounts)
	// finish clears the active gauge; an error return must clear it too,
	// or the stall alert keeps watching a campaign that has ended.
	defer func() {
		if err != nil {
			mon.reg.Gauge("epvf_campaign_active").Set(0)
		}
	}()

	// The campaign root span is the deterministic anchor every process
	// parents its work under; resume re-emits it with the same ID and the
	// log reader keeps the first occurrence.
	root := opts.Tracer.StartExact("campaign "+plan.Benchmark, TraceContext(plan.ID), "")

	// An already-logged stop decision, or one implied by the replayed
	// prefix, short-circuits execution.
	loggedStop := st.stopped
	if !st.stopped && opts.Epsilon > 0 {
		st.checkStop(opts.Epsilon, minRuns)
	}

	var executed int64
	budgetLeft := opts.Budget
	budgetExhausted := false
	interrupted := false
	// A shard's span closes with its exemplar spans ingested into the
	// tracer, also when cancellation, the budget or an error return cuts
	// the shard short: the tracer's recent spans then show where the
	// campaign stopped. Only completed shards persist spans to the log.
	var trace *ShardTrace
	endShard := func() []obs.SpanRecord {
		spans := trace.End()
		trace = nil
		return spans
	}
	defer endShard()
	for _, si := range shardOrder {
		if st.stopped {
			break
		}
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		lo, hi := plan.ShardRange(si)
		// Skip shards beyond an adaptive-stop prefix boundary check; run
		// the missing indices of this shard.
		var missing []int64
		for idx := lo; idx < hi; idx++ {
			if _, ok := st.records[idx]; !ok {
				missing = append(missing, idx)
			}
		}
		if len(missing) > 0 {
			if opts.Budget > 0 {
				if budgetLeft <= 0 {
					budgetExhausted = true
					break
				}
				if int64(len(missing)) > budgetLeft {
					missing = missing[:budgetLeft]
					budgetExhausted = true
				}
			}
			trace = StartShardTrace(opts.Tracer, root, plan, si)
			var n int64
			err := runner.Run(ctx, missing, opts.Workers, func(i int64, rec fi.Record, t0 time.Time, dur time.Duration) error {
				st.records[i] = rec
				n++
				if log != nil {
					if err := log.append(runLine(NewRunRec(i, rec))); err != nil {
						return err
					}
				}
				mon.record(rec, dur)
				trace.Observe(i, rec, t0, dur)
				if opts.Ledger != nil {
					opts.Ledger.Observe(rec)
				}
				return nil
			})
			executed += n
			budgetLeft -= n
			if err != nil {
				return nil, err
			}
			if ctx.Err() != nil {
				interrupted = true
			}
		}
		if st.complete(si) {
			mon.shardComplete()
			if log != nil {
				if err := log.append(logRecord{Kind: kindShardDone, Shard: si}); err != nil {
					return nil, err
				}
				if spans := endShard(); spans != nil {
					if err := log.appendSpans(spans); err != nil {
						return nil, err
					}
				}
				if err := mon.timedCheckpoint(log); err != nil {
					return nil, err
				}
			}
			if opts.Epsilon > 0 {
				st.checkStop(opts.Epsilon, minRuns)
			}
		}
		endShard()
		if budgetExhausted || interrupted {
			break
		}
	}
	if st.stopped && !loggedStop && log != nil {
		if err := log.append(logRecord{Kind: kindStop, Done: st.stopN, Saved: st.saved, Reason: st.reason}); err != nil {
			return nil, err
		}
		if err := mon.timedCheckpoint(log); err != nil {
			return nil, err
		}
	}
	if interrupted && log != nil {
		// Make everything executed so far durable before handing back a
		// resumable partial result.
		if err := mon.timedCheckpoint(log); err != nil {
			return nil, err
		}
	}

	if log != nil && opts.Ledger != nil {
		if err := log.AppendAttr(opts.Ledger.Snapshot()); err != nil {
			return nil, err
		}
	}
	if root != nil {
		rootRec := root.EndRecord()
		if log != nil {
			if err := log.AppendSpans([]obs.SpanRecord{rootRec}); err != nil {
				return nil, err
			}
		}
	}

	res := st.result()
	res.Executed = executed
	res.Replayed = replayed
	res.Interrupted = interrupted
	res.Elapsed = time.Since(start)
	mon.finish(res)
	return res, nil
}

// Resume continues a previously started campaign from its log; unlike Run
// it refuses to start from scratch, so a typo'd path fails loudly instead
// of silently launching a fresh campaign.
func Resume(ctx context.Context, m *ir.Module, golden *interp.Result, plan *Plan, opts RunOptions) (*Result, error) {
	if opts.LogPath == "" {
		return nil, fmt.Errorf("campaign: resume requires a log path")
	}
	if _, err := os.Stat(opts.LogPath); err != nil {
		return nil, fmt.Errorf("campaign: resume: %w", err)
	}
	return Run(ctx, m, golden, plan, opts)
}

// state tracks a campaign mid-flight.
type state struct {
	plan    *Plan
	records map[int64]fi.Record
	stopped bool
	stopN   int64 // effective run count when stopped
	saved   int64
	reason  string
}

// complete reports whether shard si has every record.
func (st *state) complete(si int) bool {
	lo, hi := st.plan.ShardRange(si)
	for i := lo; i < hi; i++ {
		if _, ok := st.records[i]; !ok {
			return false
		}
	}
	return true
}

// checkStop scans contiguous completed-shard prefixes in order and stops
// at the first boundary where both tracked rates have converged. Because
// record values depend only on run index, the boundary chosen — and
// therefore the final result — is independent of worker count,
// interruptions, and shard execution order.
func (st *state) checkStop(epsilon float64, minRuns int64) {
	for k := 0; k < st.plan.NumShards(); k++ {
		if !st.complete(k) {
			return
		}
		_, n := st.plan.ShardRange(k)
		if n >= st.plan.Runs {
			return // full campaign: nothing left to save
		}
		if n < minRuns {
			continue
		}
		crash, sdc := 0, 0
		for i := int64(0); i < n; i++ {
			switch st.records[i].Outcome {
			case fi.OutcomeCrash:
				crash++
			case fi.OutcomeSDC:
				sdc++
			}
		}
		cw := stats.Proportion{Successes: crash, N: int(n)}.HalfWidth()
		sw := stats.Proportion{Successes: sdc, N: int(n)}.HalfWidth()
		if cw <= epsilon && sw <= epsilon {
			st.stopped = true
			st.stopN = n
			st.saved = st.plan.Runs - n
			st.reason = fmt.Sprintf("converged at %d/%d runs: ±crash %.4f, ±SDC %.4f <= ε %.4f",
				n, st.plan.Runs, cw, sw, epsilon)
			return
		}
	}
}

// result snapshots the effective campaign outcome.
func (st *state) result() *Result {
	res := &Result{
		Plan:       st.plan,
		Counts:     make(map[fi.Outcome]int),
		CrashTypes: make(map[interp.ExcKind]int),
		Stopped:    st.stopped,
		Saved:      st.saved,
		Reason:     st.reason,
	}
	switch {
	case st.stopped:
		// The converged prefix is the campaign's result; later records
		// (from out-of-order shard execution) stay in the log but are not
		// part of the estimate.
		res.Records = make([]fi.Record, 0, st.stopN)
		for i := int64(0); i < st.stopN; i++ {
			res.Records = append(res.Records, st.records[i])
		}
		res.Complete = true
	case int64(len(st.records)) == st.plan.Runs:
		res.Records = make([]fi.Record, 0, st.plan.Runs)
		for i := int64(0); i < st.plan.Runs; i++ {
			res.Records = append(res.Records, st.records[i])
		}
		res.Complete = true
	default:
		idxs := make([]int64, 0, len(st.records))
		for i := range st.records {
			idxs = append(idxs, i)
		}
		sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
		res.Records = make([]fi.Record, 0, len(idxs))
		for _, i := range idxs {
			res.Records = append(res.Records, st.records[i])
		}
	}
	for _, rec := range res.Records {
		res.Counts[rec.Outcome]++
		if rec.Outcome == fi.OutcomeCrash {
			res.CrashTypes[rec.Exc]++
		}
	}
	return res
}
