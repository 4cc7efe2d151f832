package obs

import (
	"encoding/json"
	"io"
	"maps"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/report"
)

// SpanRecord is one completed span: a named phase with wall time, heap
// allocation deltas (runtime.ReadMemStats) and optional per-span counters.
// Correlated spans additionally carry trace identity (TraceID/SpanID/
// ParentID) and the process that produced them; plain phase spans leave
// those fields empty and everything downstream treats them as before.
type SpanRecord struct {
	Name string `json:"name"`
	// TraceID groups every span of one campaign/analyze request, across
	// processes. SpanID identifies this span inside the trace; ParentID
	// links it to its parent ("" for roots). Proc names the producing
	// process ("coordinator", "worker-a", "epvf-serve").
	TraceID  string    `json:"trace,omitempty"`
	SpanID   string    `json:"span,omitempty"`
	ParentID string    `json:"parent,omitempty"`
	Proc     string    `json:"proc,omitempty"`
	Depth    int       `json:"depth"`
	Start    time.Time `json:"start"`
	// WallNS is the span duration under the tracer's clock.
	WallNS int64 `json:"wall_ns"`
	// Allocs and AllocBytes are the heap allocation count/byte deltas
	// across the span (process-wide, so concurrent work is attributed
	// too — treat them as an upper bound).
	Allocs     uint64           `json:"allocs"`
	AllocBytes uint64           `json:"alloc_bytes"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

// Tracer records nestable phase spans. A nil *Tracer (the disabled
// default) hands out nil *Span handles whose methods no-op, so
// instrumented pipelines pay one nil check per phase.
//
// A tracer is also its process's flight recorder: it keeps the newest
// DefaultFlightSpans completed spans in a ring (what /debug/flight and
// the abnormal-exit dump show) plus running per-name totals, so memory
// stays bounded however long it records while Aggregate still covers
// every span.
type Tracer struct {
	mu     sync.Mutex
	w      io.Writer // JSONL sink, may be nil
	now    func() time.Time
	proc   string
	recent *Ring[SpanRecord]
	total  uint64 // spans ever recorded
	phases map[string]*PhaseStat
	order  []string // phase first-seen order
}

// A tracer keeps per-name totals for at most maxPhases names. Campaign
// spans are named after their shard or run, so without a bound the
// totals would grow with the campaign; spans with a new name past the
// bound are totalled under otherPhase.
const (
	maxPhases  = 1024
	otherPhase = "(other)"
)

// NewTracer returns a tracer. w, when non-nil, receives one JSON line per
// completed span.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{
		w:      w,
		now:    time.Now,
		recent: NewRing[SpanRecord](DefaultFlightSpans),
		phases: make(map[string]*PhaseStat),
	}
}

// SetProc names the producing process; every span recorded afterwards
// carries it (ingested remote spans keep their own).
func (t *Tracer) SetProc(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.proc = name
	t.mu.Unlock()
}

// SetClock injects the time source (tests; the campaign progress reporter
// shares the same seam).
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

func (t *Tracer) clock() time.Time {
	t.mu.Lock()
	now := t.now
	t.mu.Unlock()
	return now()
}

// Span is one in-flight phase. Methods on a nil Span no-op.
type Span struct {
	t        *Tracer
	name     string
	ctx      SpanContext
	parentID string
	depth    int
	start    time.Time
	mallocs0 uint64
	bytes0   uint64
	counters map[string]int64
	mu       sync.Mutex
	ended    bool
	rec      SpanRecord // valid once ended
}

// Start opens a root span under a fresh random trace ID.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	tid := NewTraceID()
	return t.open(name, 0, SpanContext{TraceID: tid, SpanID: NewSpanID()}, "")
}

// StartRemote opens a span as the child of a remote parent (the context
// extracted from an incoming request's trace header). An invalid parent
// degrades to Start: a fresh root.
func (t *Tracer) StartRemote(name string, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.Start(name)
	}
	return t.open(name, 0, SpanContext{TraceID: parent.TraceID, SpanID: NewSpanID()}, parent.SpanID)
}

// StartExact opens a span with a caller-chosen identity — the
// deterministic-ID discipline (campaign roots, shard spans) where every
// process must derive the same span ID. parentID may be "" for roots.
func (t *Tracer) StartExact(name string, ctx SpanContext, parentID string) *Span {
	if t == nil {
		return nil
	}
	return t.open(name, 0, ctx, parentID)
}

func (t *Tracer) open(name string, depth int, ctx SpanContext, parentID string) *Span {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &Span{
		t:        t,
		name:     name,
		ctx:      ctx,
		parentID: parentID,
		depth:    depth,
		start:    t.clock(),
		mallocs0: ms.Mallocs,
		bytes0:   ms.TotalAlloc,
	}
}

// Child opens a nested span one level deeper, inheriting the trace and
// parented to sp.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	ctx := SpanContext{TraceID: sp.ctx.TraceID, SpanID: NewSpanID()}
	return sp.t.open(name, sp.depth+1, ctx, sp.ctx.SpanID)
}

// ChildExact opens a nested span with a caller-chosen span ID
// (deterministic shard/injection spans).
func (sp *Span) ChildExact(name, spanID string) *Span {
	if sp == nil {
		return nil
	}
	ctx := SpanContext{TraceID: sp.ctx.TraceID, SpanID: spanID}
	return sp.t.open(name, sp.depth+1, ctx, sp.ctx.SpanID)
}

// Context returns the span's portable identity (zero for nil spans) —
// what InjectTraceHeader stamps on outgoing requests.
func (sp *Span) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return sp.ctx
}

// Add accumulates a named per-span counter (node counts, bit counts, ...).
func (sp *Span) Add(counter string, n int64) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.counters == nil {
		sp.counters = make(map[string]int64)
	}
	sp.counters[counter] += n
	sp.mu.Unlock()
}

// End closes the span, recording it on the tracer and emitting its JSONL
// line. End is idempotent.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return
	}
	sp.ended = true
	counters := sp.counters
	sp.mu.Unlock()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec := SpanRecord{
		Name:       sp.name,
		TraceID:    sp.ctx.TraceID,
		SpanID:     sp.ctx.SpanID,
		ParentID:   sp.parentID,
		Proc:       sp.t.procName(),
		Depth:      sp.depth,
		Start:      sp.start,
		WallNS:     sp.t.clock().Sub(sp.start).Nanoseconds(),
		Allocs:     ms.Mallocs - sp.mallocs0,
		AllocBytes: ms.TotalAlloc - sp.bytes0,
		Counters:   counters,
	}
	sp.mu.Lock()
	sp.rec = rec
	sp.mu.Unlock()
	sp.t.record(rec)
}

// EndRecord ends the span (idempotent) and returns its completed record
// — what a daemon sends back to the requesting process so the caller's
// trace includes the remote work. Zero record for nil spans.
func (sp *Span) EndRecord() SpanRecord {
	if sp == nil {
		return SpanRecord{}
	}
	sp.End()
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.rec
}

// Ingest records spans built elsewhere verbatim (JSONL sink, recent-span
// ring, phase totals): the coordinator ingests worker shard subtrees, a
// -server client ingests the daemon's handling spans, and the campaign
// engine and dist workers ingest each shard's injection exemplars.
func (t *Tracer) Ingest(recs ...SpanRecord) {
	if t == nil {
		return
	}
	for _, rec := range recs {
		t.record(rec)
	}
}

func (t *Tracer) procName() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.proc
}

// spanSink is the process-wide completed-span hook: the live-telemetry
// layer installs a function fanning spans onto the SSE stream. Kept as
// a generic func pointer so obs does not depend on the ts package.
var spanSink atomic.Pointer[func(SpanRecord)]

// SetSpanSink installs (or, with nil, clears) the process-wide
// completed-span hook. It returns the hook's remover, which clears the
// sink only if it is still this installation — a later mount is never
// clobbered by an earlier unmount.
func SetSpanSink(fn func(SpanRecord)) (remove func()) {
	if fn == nil {
		spanSink.Store(nil)
		return func() {}
	}
	p := &fn
	spanSink.Store(p)
	return func() { spanSink.CompareAndSwap(p, nil) }
}

// record stores one completed span and emits its JSONL line. A sink
// write error increments the epvf_obs_trace_drops counter and the tracer
// keeps working — one bad write must not poison subsequent spans.
func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	t.recent.Push(rec)
	t.total++
	name := rec.Name
	if t.phases[name] == nil && len(t.order) >= maxPhases {
		name = otherPhase
	}
	st := t.phases[name]
	if st == nil {
		st = &PhaseStat{Name: name}
		t.phases[name] = st
		t.order = append(t.order, name)
	}
	st.Count++
	st.WallNS += rec.WallNS
	st.Allocs += rec.Allocs
	st.AllocBytes += rec.AllocBytes
	for k, v := range rec.Counters {
		if st.Counters == nil {
			st.Counters = make(map[string]int64)
		}
		st.Counters[k] += v
	}
	w := t.w
	t.mu.Unlock()
	if sink := spanSink.Load(); sink != nil {
		(*sink)(rec)
	}
	if w == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		drop()
		return
	}
	t.mu.Lock()
	_, werr := w.Write(append(line, '\n'))
	t.mu.Unlock()
	if werr != nil {
		drop()
	}
}

// drop counts a span line lost to a sink error on the default registry's
// epvf_obs_trace_drops counter.
func drop() { Default().Counter("epvf_obs_trace_drops").Add(1) }

// Spans returns a copy of the newest DefaultFlightSpans completed spans,
// oldest first (every span, for a tracer that recorded no more).
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recent.Items()
}

// PhaseStat aggregates every completed span of one name.
type PhaseStat struct {
	Name       string           `json:"name"`
	Count      int64            `json:"count"`
	WallNS     int64            `json:"wall_ns"`
	Allocs     uint64           `json:"allocs"`
	AllocBytes uint64           `json:"alloc_bytes"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

// Aggregate returns the per-phase totals of every span the tracer ever
// recorded, sorted by descending wall time.
func (t *Tracer) Aggregate() []PhaseStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]PhaseStat, 0, len(t.order))
	for _, n := range t.order {
		st := *t.phases[n]
		st.Counters = maps.Clone(st.Counters)
		out = append(out, st)
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].WallNS > out[j].WallNS })
	return out
}

// Summary renders the per-phase totals as a table.
func (t *Tracer) Summary() string {
	if t == nil {
		return ""
	}
	tab := report.NewTable("Phase summary", "Phase", "Spans", "Wall", "Allocs", "Alloc bytes")
	for _, st := range t.Aggregate() {
		tab.AddRow(st.Name, st.Count,
			time.Duration(st.WallNS).Round(time.Microsecond).String(),
			st.Allocs, st.AllocBytes)
	}
	return tab.String()
}

// defaultTracer mirrors defaultReg: nil until a CLI enables tracing.
var defaultTracer atomic.Pointer[Tracer]

// DefaultTracer returns the process-wide tracer (nil when disabled).
func DefaultTracer() *Tracer { return defaultTracer.Load() }

// SetDefaultTracer installs the process-wide tracer (nil disables).
func SetDefaultTracer(t *Tracer) { defaultTracer.Store(t) }

// StartSpan opens a root span on the default tracer; nil-safe and free
// when tracing is disabled.
func StartSpan(name string) *Span { return DefaultTracer().Start(name) }
