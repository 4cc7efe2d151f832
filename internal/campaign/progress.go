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

// Status is the durable state of a campaign log, readable without the
// module (e.g. for `campaign status` on another machine).
type Status struct {
	Plan *Plan
	// Done is the number of distinct logged runs.
	Done int64
	// ShardsComplete counts shards whose every index is logged.
	ShardsComplete int
	Counts         map[fi.Outcome]int
	Stopped        bool
	Saved          int64
	Reason         string
}

// ReadStatus parses a campaign log into a Status.
func ReadStatus(path string) (*Status, error) {
	rp, err := readLog(path)
	if err != nil {
		return nil, err
	}
	s := &Status{
		Plan:    rp.Plan,
		Done:    int64(len(rp.Records)),
		Counts:  make(map[fi.Outcome]int),
		Stopped: rp.Stopped,
		Saved:   rp.Saved,
		Reason:  rp.Reason,
	}
	s.ShardsComplete = len(rp.completeShards())
	for _, rec := range rp.Records {
		s.Counts[rec.Outcome]++
	}
	return s, nil
}

// JSON converts the log-derived status into the shared StatusJSON schema —
// the same shape the live /campaign HTTP view serves. Throughput fields
// are unknowable from a cold log: RunsPerSec and ElapsedSeconds stay 0 and
// ETASeconds is -1. Every logged run counts as replayed.
func (s *Status) JSON() *StatusJSON {
	out := &StatusJSON{
		ID:             s.Plan.ID,
		Benchmark:      s.Plan.Benchmark,
		PlannedRuns:    s.Plan.Runs,
		ShardSize:      s.Plan.ShardSize,
		NumShards:      s.Plan.NumShards(),
		ShardsComplete: s.ShardsComplete,
		Done:           s.Done,
		Replayed:       s.Done,
		ETASeconds:     -1,
		Stopped:        s.Stopped,
		Saved:          s.Saved,
		Reason:         s.Reason,
	}
	n := int(s.Done)
	for _, o := range fi.FailureOutcomes {
		out.Outcomes = append(out.Outcomes, outcomeJSON(o, int64(s.Counts[o]), n))
	}
	return out
}

// Render prints the status as a table.
func (s *Status) Render() string {
	title := fmt.Sprintf("Campaign %s [%s]", s.Plan.ID, s.Plan.Benchmark)
	t := report.NewTable(title, "Field", "Value")
	t.AddRow("runs logged", fmt.Sprintf("%d/%d", s.Done, s.Plan.Runs))
	t.AddRow("shards complete", fmt.Sprintf("%d/%d", s.ShardsComplete, s.Plan.NumShards()))
	t.AddRow("shard size", s.Plan.ShardSize)
	t.AddRow("seed", s.Plan.Seed)
	n := int(s.Done)
	for _, o := range fi.FailureOutcomes {
		p := stats.Proportion{Successes: s.Counts[o], N: n}
		t.AddRow(o.String(), fmt.Sprintf("%d (%s ± %s)", s.Counts[o],
			report.Percent(p.Rate()), report.Percent(p.HalfWidth())))
	}
	if s.Stopped {
		t.AddRow("early stop", fmt.Sprintf("saved %d runs (%s)", s.Saved, s.Reason))
	}
	return t.String()
}
