package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is the injectable time source shared with campaign tests.
type fakeClock struct {
	t time.Time
}

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("phase")
	if sp != nil {
		t.Fatal("nil tracer must return nil span")
	}
	child := sp.Child("sub")
	child.Add("nodes", 5)
	child.End()
	sp.End()
	tr.SetClock(time.Now)
	if tr.Spans() != nil || tr.Aggregate() != nil || tr.Summary() != "" {
		t.Error("nil tracer must report nothing")
	}
}

func TestSpanNestingAndClock(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tr.SetClock(clk.now)

	root := tr.Start("analyze")
	clk.advance(time.Second)
	child := root.Child("ddg")
	child.Add("nodes", 40)
	child.Add("nodes", 2)
	clk.advance(2 * time.Second)
	child.End()
	child.End() // idempotent
	clk.advance(time.Second)
	root.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Spans complete child-first.
	if spans[0].Name != "ddg" || spans[0].Depth != 1 {
		t.Errorf("first completed span = %q depth %d, want ddg depth 1", spans[0].Name, spans[0].Depth)
	}
	if spans[0].WallNS != (2 * time.Second).Nanoseconds() {
		t.Errorf("child wall = %d ns, want 2s", spans[0].WallNS)
	}
	if spans[0].Counters["nodes"] != 42 {
		t.Errorf("child counter = %d, want 42", spans[0].Counters["nodes"])
	}
	if spans[1].Name != "analyze" || spans[1].Depth != 0 {
		t.Errorf("second completed span = %q depth %d", spans[1].Name, spans[1].Depth)
	}
	if spans[1].WallNS != (4 * time.Second).Nanoseconds() {
		t.Errorf("root wall = %d ns, want 4s", spans[1].WallNS)
	}

	// The JSONL sink carries one parseable line per span.
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		lines++
	}
	if lines != 2 {
		t.Errorf("JSONL sink has %d lines, want 2", lines)
	}
}

func TestAggregateAndSummary(t *testing.T) {
	tr := NewTracer(nil)
	clk := &fakeClock{t: time.Unix(0, 0)}
	tr.SetClock(clk.now)
	for i := 0; i < 3; i++ {
		sp := tr.Start("rangeprop")
		sp.Add("accesses", 10)
		clk.advance(time.Millisecond)
		sp.End()
	}
	sp := tr.Start("profile")
	clk.advance(time.Second)
	sp.End()

	agg := tr.Aggregate()
	if len(agg) != 2 {
		t.Fatalf("got %d phases, want 2", len(agg))
	}
	// Sorted by descending wall time: profile first.
	if agg[0].Name != "profile" || agg[1].Name != "rangeprop" {
		t.Errorf("phase order = %s, %s", agg[0].Name, agg[1].Name)
	}
	if agg[1].Count != 3 || agg[1].WallNS != (3*time.Millisecond).Nanoseconds() {
		t.Errorf("rangeprop stat = %+v", agg[1])
	}
	if agg[1].Counters["accesses"] != 30 {
		t.Errorf("aggregated counter = %d, want 30", agg[1].Counters["accesses"])
	}
	sum := tr.Summary()
	if !strings.Contains(sum, "rangeprop") || !strings.Contains(sum, "profile") {
		t.Errorf("summary missing phases:\n%s", sum)
	}
}

func TestStartSpanDefaultTracer(t *testing.T) {
	if sp := StartSpan("x"); sp != nil {
		t.Fatal("StartSpan must be nil with tracing disabled")
	}
	tr := NewTracer(nil)
	SetDefaultTracer(tr)
	defer SetDefaultTracer(nil)
	sp := StartSpan("x")
	sp.End()
	if len(tr.Spans()) != 1 {
		t.Error("StartSpan did not record on the default tracer")
	}
}

func TestSpanAllocationDelta(t *testing.T) {
	tr := NewTracer(nil)
	sp := tr.Start("alloc")
	sink = make([]byte, 1<<20)
	sp.End()
	rec := tr.Spans()[0]
	if rec.AllocBytes < 1<<20 {
		t.Errorf("alloc delta = %d bytes, want >= 1MiB", rec.AllocBytes)
	}
	if rec.Allocs == 0 {
		t.Error("alloc count delta is zero")
	}
}

// sink defeats dead-allocation elimination.
var sink []byte

// failNWriter fails its first n writes, then delegates to the buffer.
type failNWriter struct {
	n   int
	buf bytes.Buffer
}

func (w *failNWriter) Write(p []byte) (int, error) {
	if w.n > 0 {
		w.n--
		return 0, errors.New("disk full")
	}
	return w.buf.Write(p)
}

// TestSinkErrorDoesNotPoisonTracer ends spans against a sink whose first
// writes fail: the failed lines are counted as drops, the spans still
// land in memory, and later spans reach the sink normally.
func TestSinkErrorDoesNotPoisonTracer(t *testing.T) {
	reg := NewRegistry()
	SetDefault(reg)
	defer SetDefault(nil)
	w := &failNWriter{n: 2}
	tr := NewTracer(w)
	for _, name := range []string{"a", "b", "c", "d"} {
		tr.Start(name).End()
	}
	if got := reg.Snapshot().Counter("epvf_obs_trace_drops"); got != 2 {
		t.Errorf("epvf_obs_trace_drops = %d, want 2", got)
	}
	if got := len(tr.Spans()); got != 4 {
		t.Errorf("in-memory spans = %d, want 4 (drops must not lose memory copies)", got)
	}
	lines := strings.Split(strings.TrimSpace(w.buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink lines = %d, want the 2 post-recovery spans:\n%s", len(lines), w.buf.String())
	}
	for i, want := range []string{"c", "d"} {
		var rec SpanRecord
		if err := json.Unmarshal([]byte(lines[i]), &rec); err != nil {
			t.Fatalf("sink line %d: %v", i, err)
		}
		if rec.Name != want {
			t.Errorf("sink line %d = span %q, want %q", i, rec.Name, want)
		}
	}
}

// TestTracerKeepsNewestSpans records DefaultFlightSpans+10 spans from
// several goroutines: the tracer's ring keeps the newest
// DefaultFlightSpans, oldest first, while Aggregate and the flight
// total still count every span with exact wall sums.
func TestTracerKeepsNewestSpans(t *testing.T) {
	const goroutines = 6
	const total = DefaultFlightSpans + 10
	const per = total / goroutines
	if per*goroutines != total {
		t.Fatalf("%d spans do not split over %d goroutines", total, goroutines)
	}
	tr := NewTracer(nil)
	tr.SetProc("flight-test")
	walls := make([]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tr.Start(fmt.Sprintf("g%d", g))
				sp.Add("seq", int64(i))
				walls[g] += sp.EndRecord().WallNS
			}
		}(g)
	}
	wg.Wait()

	spans := tr.Spans()
	if len(spans) != DefaultFlightSpans {
		t.Fatalf("Spans() holds %d, want %d", len(spans), DefaultFlightSpans)
	}
	// Eviction drops the globally oldest spans, so each goroutine keeps a
	// suffix of its own sequence, in order, ending at its last span.
	next := make(map[string]int64)
	for _, rec := range spans {
		seq := rec.Counters["seq"]
		if want, seen := next[rec.Name]; seen && seq != want {
			t.Fatalf("%s: retained seq %d after %d, want %d (not oldest first, or a gap)", rec.Name, seq, want-1, want)
		}
		next[rec.Name] = seq + 1
	}
	for name, n := range next {
		if n != per {
			t.Errorf("%s: newest retained seq %d, want %d", name, n-1, per-1)
		}
	}
	if v := tr.Flight(); v.SpansTotal != total || len(v.RecentSpans) != DefaultFlightSpans {
		t.Errorf("flight view: %d recorded, %d retained; want %d, %d", v.SpansTotal, len(v.RecentSpans), total, DefaultFlightSpans)
	}

	agg := tr.Aggregate()
	if len(agg) != goroutines {
		t.Fatalf("Aggregate has %d phases, want %d", len(agg), goroutines)
	}
	for _, st := range agg {
		var g int
		fmt.Sscanf(st.Name, "g%d", &g)
		if st.Count != per || st.WallNS != walls[g] || st.Counters["seq"] != per*(per-1)/2 {
			t.Errorf("%s: count %d wall %d seq sum %d; want %d, %d, %d",
				st.Name, st.Count, st.WallNS, st.Counters["seq"], per, walls[g], per*(per-1)/2)
		}
	}

	var text bytes.Buffer
	tr.WriteFlight(&text)
	if !strings.HasPrefix(text.String(), fmt.Sprintf("flight recorder: %d spans recorded (%d retained)", total, DefaultFlightSpans)) {
		t.Errorf("text view header: %q", strings.SplitN(text.String(), "\n", 2)[0])
	}
	if rows := strings.Count(text.String(), "flight-test"); rows != DefaultFlightSpans {
		t.Errorf("text view lists %d spans, want %d", rows, DefaultFlightSpans)
	}
}

// TestDumpFlightPrintsMarkedTracer: an error marked with the tracer a
// command ran with dumps that tracer, also through wrapping; an unmarked
// error or a tracer that recorded nothing prints nothing.
func TestDumpFlightPrintsMarkedTracer(t *testing.T) {
	tr := NewTracer(nil)
	base := errors.New("boom")
	var out bytes.Buffer
	DumpFlight(&out, WithFlight(base, tr))
	if out.Len() != 0 {
		t.Errorf("empty tracer dumped:\n%s", out.String())
	}
	tr.Start("phase").End()
	err := fmt.Errorf("command: %w", WithFlight(base, tr))
	if !errors.Is(err, base) || err.Error() != "command: boom" {
		t.Errorf("marked error = %q, want it to wrap %q unchanged", err, base)
	}
	DumpFlight(&out, err)
	if !strings.Contains(out.String(), "1 spans recorded") || !strings.Contains(out.String(), "phase") {
		t.Errorf("dump lacks the tracer's span:\n%s", out.String())
	}
	out.Reset()
	DumpFlight(&out, base)
	if WithFlight(nil, tr) != nil || out.Len() != 0 {
		t.Error("unmarked or nil errors must not dump")
	}
}

// TestTracerBoundsPhaseTotals: past maxPhases distinct names, new names
// fold into otherPhase, so the totals stay bounded and still count
// every span.
func TestTracerBoundsPhaseTotals(t *testing.T) {
	tr := NewTracer(nil)
	for i := 0; i < maxPhases+10; i++ {
		tr.Ingest(SpanRecord{Name: fmt.Sprintf("shard %d", i), WallNS: 1})
	}
	tr.Ingest(SpanRecord{Name: "shard 0", WallNS: 1})
	agg := tr.Aggregate()
	if len(agg) != maxPhases+1 {
		t.Fatalf("Aggregate has %d phases, want %d", len(agg), maxPhases+1)
	}
	var count, wall int64
	for _, st := range agg {
		count += st.Count
		wall += st.WallNS
		if st.Name == otherPhase && st.Count != 10 {
			t.Errorf("%s counts %d spans, want 10", otherPhase, st.Count)
		}
		if st.Name == "shard 0" && st.Count != 2 {
			t.Errorf("shard 0 counts %d spans, want 2", st.Count)
		}
	}
	if count != maxPhases+11 || wall != maxPhases+11 {
		t.Errorf("totals cover %d spans and %d ns, want %d of each", count, wall, maxPhases+11)
	}
}
