package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// realLog runs a 40-run, two-shard campaign and returns its log.
func realLog(tb testing.TB) []byte {
	tb.Helper()
	g := golden(tb, kernelSrc)
	p := testPlan(tb, g, 40, 20)
	path := filepath.Join(tb.TempDir(), "real.jsonl")
	if _, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: path}); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// logCorruption rewrites the first record of one kind in a real log.
type logCorruption struct {
	name string
	kind string
	edit func(*logRecord)
	want string // error fragment
}

var logCorruptions = []logCorruption{
	{"zero shard size", kindHeader, func(r *logRecord) { r.Plan.ShardSize = 0 }, "in shards of 0"},
	{"zero runs", kindHeader, func(r *logRecord) { r.Plan.Runs = 0 }, "has 0 runs"},
	{"shard count overflows", kindHeader, func(r *logRecord) { r.Plan.Runs = math.MaxInt64 }, "too many to count shards"},
	{"header without plan", kindHeader, func(r *logRecord) { r.Plan = nil }, "carries no plan"},
	{"outcome past enum", kindRun, func(r *logRecord) { r.Outcome = 99 }, "unknown outcome 99"},
	{"outcome zero", kindRun, func(r *logRecord) { r.Outcome = 0 }, "unknown outcome 0"},
	{"exception past enum", kindRun, func(r *logRecord) { r.Exc = 99 }, "unknown exception kind 99"},
	{"negative run index", kindRun, func(r *logRecord) { r.Index = -1 }, "run index -1 outside [0, 40)"},
	{"run index past plan", kindRun, func(r *logRecord) { r.Index = 40 }, "run index 40 outside [0, 40)"},
	{"negative shard", kindShardDone, func(r *logRecord) { r.Shard = -1 }, "shard -1 outside [0, 2)"},
	{"shard past plan", kindShardDone, func(r *logRecord) { r.Shard = 2 }, "shard 2 outside [0, 2)"},
}

// corrupt applies c to data, returning the new log and the 1-based line
// it rewrote.
func corrupt(tb testing.TB, data []byte, c logCorruption) ([]byte, int) {
	tb.Helper()
	lines := strings.Split(string(data), "\n")
	for i, ln := range lines {
		var rec logRecord
		if ln == "" || json.Unmarshal([]byte(ln), &rec) != nil || rec.Kind != c.kind {
			continue
		}
		c.edit(&rec)
		b, err := json.Marshal(rec)
		if err != nil {
			tb.Fatal(err)
		}
		lines[i] = string(b)
		return []byte(strings.Join(lines, "\n")), i + 1
	}
	tb.Fatalf("%s: log has no %s record", c.name, c.kind)
	return nil, 0
}

// TestReadLogRejectsCorruption: each corruption fails ReadLog — which
// `campaign status` reads through — with an error naming the rewritten
// line, and merge, which once divided by a zero shard size, returns that
// error instead of panicking.
func TestReadLogRejectsCorruption(t *testing.T) {
	base := realLog(t)
	dir := t.TempDir()
	for _, c := range logCorruptions {
		t.Run(c.name, func(t *testing.T) {
			data, line := corrupt(t, base, c)
			path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "_")+".jsonl")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := ReadLog(path)
			if err == nil {
				t.Fatal("corrupt log accepted")
			}
			if at := fmt.Sprintf("%s:%d: ", path, line); !strings.Contains(err.Error(), at) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q, want %q at %q", err, c.want, at)
			}
			if _, err := MergeLogs(filepath.Join(t.TempDir(), "m.jsonl"), []string{path}); err == nil {
				t.Error("merge accepted the corrupt log")
			}
		})
	}
}

// TestReadLogRejectsMisorderedRecords: a second header, or run and
// shard records ahead of the header, are corruption too.
func TestReadLogRejectsMisorderedRecords(t *testing.T) {
	lines := strings.SplitAfter(string(realLog(t)), "\n")
	header := lines[0]
	var run, shard string
	for _, ln := range lines {
		if run == "" && strings.Contains(ln, `"kind":"run"`) {
			run = ln
		}
		if shard == "" && strings.Contains(ln, `"kind":"shard_done"`) {
			shard = ln
		}
	}
	for _, c := range []struct{ name, log, want string }{
		{"duplicate header", header + header, ":2: duplicate header"},
		{"run before header", run + header, ":1: run record before the plan header"},
		{"shard before header", shard + header, ":1: shard_done record before the plan header"},
		{"shard before its runs", header + shard, ":2: shard_done"},
	} {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, []byte(c.log), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadLog(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
}

// TestStatusAndMergeFollowTheLog: a header claiming ~1e18 runs costs
// status and merge only what the log holds; they once looped over every
// shard of the plan.
func TestStatusAndMergeFollowTheLog(t *testing.T) {
	dir := t.TempDir()
	base := realLog(t)
	want, err := ReadLog(writeLog(t, dir, "real.jsonl", base))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := corrupt(t, base, logCorruption{"huge plan", kindHeader, func(r *logRecord) { r.Plan.Runs = 1e18 }, ""})
	path := writeLog(t, dir, "huge.jsonl", data)
	got, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Done() != want.Done() || len(got.CompleteShards()) != len(want.CompleteShards()) {
		t.Fatalf("status of the huge plan: %d runs, %d shards complete; want %d and %d",
			got.Done(), len(got.CompleteShards()), want.Done(), len(want.CompleteShards()))
	}
	merged, err := MergeLogs(filepath.Join(dir, "merged.jsonl"), []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Done() != want.Done() || len(merged.CompleteShards()) != len(want.CompleteShards()) {
		t.Fatalf("merge of the huge plan: %d runs, %d shards complete; want %d and %d",
			merged.Done(), len(merged.CompleteShards()), want.Done(), len(want.CompleteShards()))
	}
}

// TestLogLineLimitSharedByWriterAndReader: a record whose line is exactly
// maxLogLine bytes is written and reads back; one byte more is refused
// with nothing written, and DurableLog.AppendSpans splits a batch of that size into
// records that fit.
func TestLogLineLimitSharedByWriterAndReader(t *testing.T) {
	path := writeLog(t, t.TempDir(), "limit.jsonl", realLog(t))
	id := 0
	span := func(name string) obs.SpanRecord {
		id++
		return obs.SpanRecord{Name: name, TraceID: "t", SpanID: fmt.Sprintf("s%d", id), Proc: "p"}
	}
	base, err := newLineEncoder().encode(logRecord{Kind: kindSpans, Spans: []obs.SpanRecord{span("")}})
	if err != nil {
		t.Fatal(err)
	}
	fits := span(strings.Repeat("x", maxLogLine-len(base)))
	if err := appendSpans(t, path, []obs.SpanRecord{fits}); err != nil {
		t.Fatalf("line of exactly %d bytes: %v", maxLogLine, err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tooLong := span(strings.Repeat("x", maxLogLine-len(base)+1))
	if err := appendSpans(t, path, []obs.SpanRecord{span("small"), tooLong}); !errors.Is(err, errLineTooLong) {
		t.Fatalf("line of %d bytes: err = %v, want errLineTooLong", maxLogLine+1, err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("refused batch wrote %d bytes", len(after)-len(before))
	}
	// Two spans that fit alone but not together land in two records.
	half := maxLogLine/2 + 1
	pair := []obs.SpanRecord{span(strings.Repeat("a", half)), span(strings.Repeat("b", half+1))}
	if err := appendSpans(t, path, pair); err != nil {
		t.Fatal(err)
	}
	rp, err := ReadLog(path)
	if err != nil {
		t.Fatalf("reading the log back: %v", err)
	}
	names := map[string]bool{}
	for _, sp := range rp.Spans {
		names[sp.SpanID] = true
	}
	for _, sp := range append(pair, fits) {
		if !names[sp.SpanID] {
			t.Fatalf("span %s missing from the log", sp.SpanID)
		}
	}
}

// appendSpans appends spans to the log at path through a DurableLog
// opened with the log's own plan.
func appendSpans(tb testing.TB, path string, spans []obs.SpanRecord) error {
	tb.Helper()
	d, err := ReadLog(path)
	if err != nil {
		tb.Fatal(err)
	}
	l, _, err := OpenDurableLog(path, d.Plan)
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	return l.AppendSpans(spans)
}

// writeLog writes data as the log name in dir and returns its path.
func writeLog(tb testing.TB, dir, name string, data []byte) string {
	tb.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// FuzzReadLog: no input panics ReadLog, and every log it accepts is
// consistent with its own plan — the guarantee the status, merge and
// resume paths build on. Status and merge then run on it, and the merged
// log reads back with the same runs and complete shards.
func FuzzReadLog(f *testing.F) {
	base := realLog(f)
	f.Add(base)
	f.Add(base[:len(base)-7]) // torn final line
	huge, _ := corrupt(f, base, logCorruption{"huge plan", kindHeader, func(r *logRecord) { r.Plan.Runs = 1e18 }, ""})
	f.Add(huge)
	for _, c := range logCorruptions {
		data, _ := corrupt(f, base, c)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := writeLog(t, dir, "log.jsonl", data)
		rp, err := ReadLog(path)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				t.Fatal(err)
			}
			return
		}
		p := rp.Plan
		if p.Runs <= 0 || p.ShardSize <= 0 {
			t.Fatalf("accepted plan with %d runs in shards of %d", p.Runs, p.ShardSize)
		}
		for idx, rec := range rp.Records {
			if idx < 0 || idx >= p.Runs || !rec.Outcome.Valid() || (rec.Exc != 0 && !rec.Exc.Valid()) {
				t.Fatalf("accepted run %d: %+v", idx, rec)
			}
		}
		complete := map[int]bool{}
		for _, s := range rp.CompleteShards() {
			if s < 0 || s >= p.NumShards() {
				t.Fatalf("complete shard %d of %d", s, p.NumShards())
			}
			for lo, hi := p.ShardRange(s); lo < hi; lo++ {
				if _, ok := rp.Records[lo]; !ok {
					t.Fatalf("shard %d counted complete without run %d", s, lo)
				}
			}
			complete[s] = true
		}
		// Every shard_done line ReadLog accepted names a complete shard.
		for _, ln := range strings.Split(string(data), "\n") {
			var rec logRecord
			if json.Unmarshal([]byte(ln), &rec) == nil && rec.Kind == kindShardDone && !complete[rec.Shard] {
				t.Fatalf("accepted shard_done %d of a shard that is not complete", rec.Shard)
			}
		}
		_, _ = rp.Render(), rp.JSON() // `campaign status` of the log
		merged, err := MergeLogs(filepath.Join(dir, "merged.jsonl"), []string{path})
		if err != nil {
			t.Fatalf("merge of an accepted log: %v", err)
		}
		if merged.Done() != rp.Done() || len(merged.CompleteShards()) != len(complete) {
			t.Fatalf("merged log has %d runs and %d complete shards, want %d and %d",
				merged.Done(), len(merged.CompleteShards()), rp.Done(), len(complete))
		}
	})
}
