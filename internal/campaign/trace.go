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

// exemplarSet picks a shard's notable injections — the exemplarSlowest
// slowest plus the first of each crash class — for the exemplar spans
// that ship with its results. It is bounded by construction (one entry
// per distinct crash class). The zero value is ready to use.
type exemplarSet struct {
	slowest []exemplar // descending wall
	classes []exemplar // first of each crash class, first-seen order
}

// exemplar is one completed injection an exemplarSet retains.
type exemplar struct {
	index int64
	rec   fi.Record
	start time.Time
	wall  time.Duration
}

// observe feeds one completed injection.
func (s *exemplarSet) observe(index int64, rec fi.Record, start time.Time, wall time.Duration) {
	e := exemplar{index, rec, start, wall}
	if i := sort.Search(len(s.slowest), func(i int) bool { return s.slowest[i].wall < wall }); i < exemplarSlowest {
		s.slowest = slices.Insert(s.slowest, i, e)[:min(len(s.slowest)+1, exemplarSlowest)]
	}
	if rec.Outcome == fi.OutcomeCrash && !slices.ContainsFunc(s.classes, func(c exemplar) bool { return c.rec.Exc == rec.Exc }) {
		s.classes = append(s.classes, e)
	}
}

// spans renders the notable injections, by index, as spans parented
// under the shard span, with deterministic IDs and names such as
// "run 17 (crash/segmentation fault)".
func (s *exemplarSet) spans(plan *Plan, shard int, proc string) []obs.SpanRecord {
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

// ShardTrace traces one executed shard: its span, with the plan's
// deterministic identity, and its exemplar injections. The in-process
// engine and dist workers both trace shards through it, so their spans
// carry the same IDs and names. Methods on a nil *ShardTrace no-op, so
// an untraced shard pays one nil check per run.
type ShardTrace struct {
	tracer    *obs.Tracer
	span      *obs.Span
	exemplars exemplarSet
	plan      *Plan
	shard     int
}

// StartShardTrace opens shard's span on tr: a child of root when the
// caller holds the campaign root span, else a span parented to the
// plan's deterministic root context. It returns nil when tr is nil.
func StartShardTrace(tr *obs.Tracer, root *obs.Span, plan *Plan, shard int) *ShardTrace {
	if tr == nil {
		return nil
	}
	name, id := fmt.Sprintf("shard %d", shard), ShardSpanID(plan.ID, shard)
	var span *obs.Span
	if root != nil {
		span = root.ChildExact(name, id)
	} else {
		ctx := TraceContext(plan.ID)
		span = tr.StartExact(name, obs.SpanContext{TraceID: ctx.TraceID, SpanID: id}, ctx.SpanID)
	}
	return &ShardTrace{tracer: tr, span: span, plan: plan, shard: shard}
}

// Context returns the shard span's identity, zero for a nil trace.
func (t *ShardTrace) Context() obs.SpanContext {
	if t == nil {
		return obs.SpanContext{}
	}
	return t.span.Context()
}

// Observe feeds one completed injection to the exemplar picker.
func (t *ShardTrace) Observe(index int64, rec fi.Record, start time.Time, wall time.Duration) {
	if t == nil {
		return
	}
	t.exemplars.observe(index, rec, start, wall)
}

// End closes the shard span, ingests its exemplar spans into the tracer
// and returns the shard's subtree: the shard span, then its exemplars.
// A nil trace returns nil.
func (t *ShardTrace) End() []obs.SpanRecord {
	if t == nil {
		return nil
	}
	rec := t.span.EndRecord()
	spans := append([]obs.SpanRecord{rec}, t.exemplars.spans(t.plan, t.shard, rec.Proc)...)
	t.tracer.Ingest(spans[1:]...)
	return spans
}
