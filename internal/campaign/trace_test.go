package campaign

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/fi"
	"repro/internal/obs"
)

// TestCutShortShardKeepsExemplarSpans cancels a traced campaign ten runs
// into its second shard. The tracer's recent spans must hold both ended
// shards' spans with their exemplar spans, the cut-short shard included;
// the log keeps spans for the completed shard only, shaped as before.
func TestCutShortShardKeepsExemplarSpans(t *testing.T) {
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 120, 20)
	logPath := filepath.Join(t.TempDir(), "c.jsonl")
	tr := obs.NewTracer(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A clock one print interval further on at every read makes the
	// monitor print one progress line per run; the 30th line cancels.
	clk := time.Unix(0, 0)
	mon := NewMonitor(nil)
	mon.SetClock(func() time.Time {
		clk = clk.Add(printEvery)
		return clk
	})
	lines := 0
	progress := writerFunc(func(b []byte) (int, error) {
		if lines++; lines == 30 {
			cancel()
		}
		return len(b), nil
	})
	res, err := Run(ctx, g.Trace.Module, g, p, RunOptions{
		LogPath: logPath, Workers: 1, Progress: progress, Monitor: mon, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.Executed <= 20 || res.Executed >= 40 {
		t.Fatalf("interrupted=%v after %d runs; want a cut inside shard 1", res.Interrupted, res.Executed)
	}
	d, err := ReadLog(logPath)
	if err != nil {
		t.Fatal(err)
	}

	type key struct{ name, id, parent string }
	root := TraceContext(p.ID)
	traced := map[int][]key{} // shard -> shard span, then its exemplars
	var rootKey key
	for _, rec := range tr.Spans() {
		k := key{rec.Name, rec.SpanID, rec.ParentID}
		switch {
		case rec.SpanID == root.SpanID:
			rootKey = k
		case rec.ParentID == root.SpanID:
			var shard int
			fmt.Sscanf(rec.Name, "shard %d", &shard)
			if rec.SpanID != ShardSpanID(p.ID, shard) {
				t.Errorf("%s has span ID %s, want %s", rec.Name, rec.SpanID, ShardSpanID(p.ID, shard))
			}
			traced[shard] = append([]key{k}, traced[shard]...)
		default:
			var idx int64
			fmt.Sscanf(rec.Name, "run %d", &idx)
			shard := int(idx / p.ShardSize)
			if rec.ParentID != ShardSpanID(p.ID, shard) || rec.SpanID != InjectionSpanID(p.ID, idx) {
				t.Errorf("exemplar %q: id %s parent %s; want %s under shard %d",
					rec.Name, rec.SpanID, rec.ParentID, InjectionSpanID(p.ID, idx), shard)
			}
			logged, ok := d.Records[idx]
			want := fmt.Sprintf("run %d (%s)", idx, logged.Outcome)
			if logged.Outcome == fi.OutcomeCrash {
				want = fmt.Sprintf("run %d (crash/%s)", idx, logged.Exc)
			}
			if !ok || rec.Name != want {
				t.Errorf("exemplar named %q, want %q", rec.Name, want)
			}
			traced[shard] = append(traced[shard], k)
		}
	}
	if rootKey.id == "" {
		t.Error("tracer lacks the campaign root span")
	}
	if len(traced) != 2 {
		t.Fatalf("tracer holds spans of %d shards, want shards 0 and 1: %v", len(traced), traced)
	}
	for shard := 0; shard < 2; shard++ {
		spans := traced[shard]
		if len(spans) < 2 || spans[0].name != fmt.Sprintf("shard %d", shard) {
			t.Errorf("shard %d: tracer holds %v, want its span and exemplar spans", shard, spans)
		}
	}

	// The log persists the root and the completed shard 0's subtree, and
	// nothing of the cut-short shard 1.
	want := append([]key{rootKey}, traced[0]...)
	var got []key
	for _, rec := range d.Spans {
		got = append(got, key{rec.Name, rec.SpanID, rec.ParentID})
	}
	byID := func(ks []key) func(i, j int) bool { return func(i, j int) bool { return ks[i].id < ks[j].id } }
	sort.Slice(want, byID(want))
	sort.Slice(got, byID(got))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("log spans\n%v\nwant\n%v", got, want)
	}
}
