package campaign

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/fi"
	"repro/internal/obs"
)

// Trace identity for campaigns. The whole fabric — engine, dist
// coordinator, dist workers, serve clients — derives the same trace from
// the plan alone, so a campaign's spans correlate across processes
// without any negotiation: the trace ID is a deterministic function of
// the plan ID, the root span and each shard span have deterministic span
// IDs, and readers dedup by span ID (first wins). A requeued shard
// re-executed by a second worker therefore reproduces the *same* span
// IDs and can never double-count, exactly mirroring the ShardHash record
// dedup.

// TraceContext returns the deterministic root span context for a plan:
// the identity of the campaign-wide root span every process parents its
// work under.
func TraceContext(planID string) obs.SpanContext {
	tid := obs.DeterministicTraceID("epvf-campaign", planID)
	return obs.SpanContext{TraceID: tid, SpanID: obs.DeterministicSpanID(tid, "campaign")}
}

// ShardSpanID returns the deterministic span ID of shard's span within
// the plan's trace.
func ShardSpanID(planID string, shard int) string {
	return obs.DeterministicSpanID(TraceContext(planID).TraceID, "shard", strconv.Itoa(shard))
}

// InjectionSpanID returns the deterministic span ID of one injection's
// exemplar span within the plan's trace.
func InjectionSpanID(planID string, index int64) string {
	return obs.DeterministicSpanID(TraceContext(planID).TraceID, "run", strconv.FormatInt(index, 10))
}

// injectionName renders the exemplar span name ("run 17 (crash/SegFault)").
func injectionName(inj obs.Injection) string {
	if inj.Class != "" {
		return fmt.Sprintf("run %d (%s/%s)", inj.Index, inj.Outcome, inj.Class)
	}
	return fmt.Sprintf("run %d (%s)", inj.Index, inj.Outcome)
}

// InjectionSpans converts a shard's notable injections (obs.InjectionSet
// exemplars) into spans parented under the shard span, with
// deterministic IDs. Both the in-process engine and dist workers use it,
// so single-process and distributed logs carry identically-shaped trees.
func InjectionSpans(plan *Plan, shard int, proc string, injs []obs.Injection) []obs.SpanRecord {
	ctx := TraceContext(plan.ID)
	parent := ShardSpanID(plan.ID, shard)
	out := make([]obs.SpanRecord, 0, len(injs))
	for _, inj := range injs {
		out = append(out, obs.SpanRecord{
			Name:     injectionName(inj),
			TraceID:  ctx.TraceID,
			SpanID:   InjectionSpanID(plan.ID, inj.Index),
			ParentID: parent,
			Proc:     proc,
			Depth:    2,
			Start:    inj.Start,
			WallNS:   inj.WallNS,
		})
	}
	return out
}

// NewInjection builds the flight-recorder view of one completed run.
func NewInjection(shard int, index int64, rec fi.Record, start time.Time, wall time.Duration) obs.Injection {
	inj := obs.Injection{
		Shard:   shard,
		Index:   index,
		Outcome: rec.Outcome.String(),
		Start:   start,
		WallNS:  wall.Nanoseconds(),
	}
	if rec.Outcome == fi.OutcomeCrash {
		inj.Class = rec.Exc.String()
	}
	return inj
}

// AppendSpans appends one span batch to an existing campaign log and
// checkpoints it — how CLIs persist spans produced after the engine has
// closed the log (e.g. the daemon publish hop). Readers dedup by span
// ID, so overlapping batches are harmless.
func AppendSpans(path string, spans []obs.SpanRecord) error {
	if len(spans) == 0 {
		return nil
	}
	if _, err := readLog(path); err != nil {
		return fmt.Errorf("campaign: appending spans: %w", err)
	}
	w, err := openLog(path, nil, false)
	if err != nil {
		return err
	}
	if err := w.appendSpans(spans); err != nil {
		w.close()
		return err
	}
	return w.close()
}
