package campaign

import (
	"fmt"

	"repro/internal/fi"
	"repro/internal/report"
	"repro/internal/stats"
)

// Render summarizes the campaign result as an outcome table with Wilson
// 95% confidence intervals.
func (r *Result) Render() string {
	title := fmt.Sprintf("Campaign %s [%s]: %d/%d runs", r.Plan.ID, r.Plan.Benchmark, len(r.Records), r.Plan.Runs)
	t := report.NewTable(title, "Outcome", "Count", "Rate", "±95% CI")
	n := len(r.Records)
	for _, o := range fi.FailureOutcomes {
		p := stats.Proportion{Successes: r.Counts[o], N: n}
		t.AddRow(o.String(), r.Counts[o], report.Percent(p.Rate()), report.Percent(p.HalfWidth()))
	}
	return t.String()
}

// JSON converts the log into the shared StatusJSON schema — the same
// shape the live /campaign HTTP view serves. Throughput fields are
// unknowable from a cold log: RunsPerSec and ElapsedSeconds stay 0 and
// ETASeconds is -1. Every logged run counts as replayed.
func (d *LogData) JSON() *StatusJSON {
	done := d.Done()
	out := &StatusJSON{
		ID:             d.Plan.ID,
		Benchmark:      d.Plan.Benchmark,
		PlannedRuns:    d.Plan.Runs,
		ShardSize:      d.Plan.ShardSize,
		NumShards:      d.Plan.NumShards(),
		ShardsComplete: len(d.CompleteShards()),
		Done:           done,
		Replayed:       done,
		ETASeconds:     -1,
		Stopped:        d.Stopped,
		Saved:          d.Saved,
		Reason:         d.Reason,
	}
	counts := d.counts()
	for _, o := range fi.FailureOutcomes {
		out.Outcomes = append(out.Outcomes, outcomeJSON(o, int64(counts[o]), int(done)))
	}
	return out
}

// Render prints the log's status as a table.
func (d *LogData) Render() string {
	p := d.Plan
	t := report.NewTable(fmt.Sprintf("Campaign %s [%s]", p.ID, p.Benchmark), "Field", "Value")
	t.AddRow("runs logged", fmt.Sprintf("%d/%d", d.Done(), p.Runs))
	t.AddRow("shards complete", fmt.Sprintf("%d/%d", len(d.CompleteShards()), p.NumShards()))
	t.AddRow("shard size", p.ShardSize)
	t.AddRow("seed", p.Seed)
	counts, n := d.counts(), int(d.Done())
	for _, o := range fi.FailureOutcomes {
		pr := stats.Proportion{Successes: counts[o], N: n}
		t.AddRow(o.String(), fmt.Sprintf("%d (%s ± %s)", counts[o],
			report.Percent(pr.Rate()), report.Percent(pr.HalfWidth())))
	}
	if d.Stopped {
		t.AddRow("early stop", fmt.Sprintf("saved %d runs (%s)", d.Saved, d.Reason))
	}
	return t.String()
}

// counts tallies the logged runs by outcome.
func (d *LogData) counts() map[fi.Outcome]int {
	c := make(map[fi.Outcome]int)
	for _, rec := range d.Records {
		c[rec.Outcome]++
	}
	return c
}
