package campaign

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
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

// exemplarSlowest is how many of a shard's slowest injections become
// exemplar spans, besides the first injection of each crash class.
const exemplarSlowest = 4

// Exemplars picks a shard's notable injections — the exemplarSlowest
// slowest plus the first of each crash class — for the exemplar spans
// that ship with its results. It is bounded by construction (one entry
// per distinct crash class). The zero value is ready to use; Observe on
// a nil *Exemplars no-ops, so untraced shards pay one nil check per run.
type Exemplars struct {
	slowest []exemplar // descending wall
	classes []exemplar // first of each crash class, first-seen order
}

// exemplar is one completed injection an Exemplars retains.
type exemplar struct {
	index int64
	rec   fi.Record
	start time.Time
	wall  time.Duration
}

// Observe feeds one completed injection.
func (s *Exemplars) Observe(index int64, rec fi.Record, start time.Time, wall time.Duration) {
	if s == nil {
		return
	}
	e := exemplar{index, rec, start, wall}
	if i := sort.Search(len(s.slowest), func(i int) bool { return s.slowest[i].wall < wall }); i < exemplarSlowest {
		s.slowest = slices.Insert(s.slowest, i, e)[:min(len(s.slowest)+1, exemplarSlowest)]
	}
	if rec.Outcome == fi.OutcomeCrash && !slices.ContainsFunc(s.classes, func(c exemplar) bool { return c.rec.Exc == rec.Exc }) {
		s.classes = append(s.classes, e)
	}
}

// Spans renders the notable injections, by index, as spans parented
// under the shard span, with deterministic IDs and names such as
// "run 17 (crash/segmentation fault)". Both the in-process engine and
// dist workers use it, so single-process and distributed logs carry
// identically-shaped trees.
func (s *Exemplars) Spans(plan *Plan, shard int, proc string) []obs.SpanRecord {
	if s == nil {
		return nil
	}
	notable := slices.Concat(s.slowest, s.classes)
	slices.SortFunc(notable, func(a, b exemplar) int { return cmp.Compare(a.index, b.index) })
	notable = slices.CompactFunc(notable, func(a, b exemplar) bool { return a.index == b.index })
	ctx := TraceContext(plan.ID)
	parent := ShardSpanID(plan.ID, shard)
	out := make([]obs.SpanRecord, 0, len(notable))
	for _, e := range notable {
		name := fmt.Sprintf("run %d (%s)", e.index, e.rec.Outcome)
		if e.rec.Outcome == fi.OutcomeCrash {
			name = fmt.Sprintf("run %d (%s/%s)", e.index, e.rec.Outcome, e.rec.Exc)
		}
		out = append(out, obs.SpanRecord{
			Name:     name,
			TraceID:  ctx.TraceID,
			SpanID:   InjectionSpanID(plan.ID, e.index),
			ParentID: parent,
			Proc:     proc,
			Depth:    2,
			Start:    e.start,
			WallNS:   e.wall.Nanoseconds(),
		})
	}
	return out
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
