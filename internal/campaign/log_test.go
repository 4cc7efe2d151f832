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

// TestReadLogRejectsCorruption: each corruption fails readLog with an
// error naming the rewritten line, and the status and merge paths — which
// once divided by a zero shard size — return that error instead of
// panicking.
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
			_, err := readLog(path)
			if err == nil {
				t.Fatal("corrupt log accepted")
			}
			if at := fmt.Sprintf("%s:%d: ", path, line); !strings.Contains(err.Error(), at) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q, want %q at %q", err, c.want, at)
			}
			if _, err := ReadStatus(path); err == nil {
				t.Error("status accepted the corrupt log")
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
		if _, err := readLog(path); err == nil || !strings.Contains(err.Error(), c.want) {
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
	want, err := ReadStatus(writeLog(t, dir, "real.jsonl", base))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := corrupt(t, base, logCorruption{"huge plan", kindHeader, func(r *logRecord) { r.Plan.Runs = 1e18 }, ""})
	path := writeLog(t, dir, "huge.jsonl", data)
	got, err := ReadStatus(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Done != want.Done || got.ShardsComplete != want.ShardsComplete {
		t.Fatalf("status of the huge plan: %d runs, %d shards complete; want %d and %d",
			got.Done, got.ShardsComplete, want.Done, want.ShardsComplete)
	}
	merged, err := MergeLogs(filepath.Join(dir, "merged.jsonl"), []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Done != want.Done || merged.ShardsComplete != want.ShardsComplete {
		t.Fatalf("merge of the huge plan: %d runs, %d shards complete; want %d and %d",
			merged.Done, merged.ShardsComplete, want.Done, want.ShardsComplete)
	}
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

// FuzzReadLog: no input panics readLog, and every log it accepts is
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
		rp, err := readLog(path)
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
		for s := range rp.ShardsDone {
			if s < 0 || s >= p.NumShards() {
				t.Fatalf("accepted shard_done %d of %d", s, p.NumShards())
			}
		}
		st, err := ReadStatus(path)
		if err != nil {
			t.Fatalf("status of an accepted log: %v", err)
		}
		if st.Done != int64(len(rp.Records)) || st.ShardsComplete < len(rp.ShardsDone) {
			t.Fatalf("status counts %d runs and %d complete shards of a log with %d runs and %d shard_done",
				st.Done, st.ShardsComplete, len(rp.Records), len(rp.ShardsDone))
		}
		merged, err := MergeLogs(filepath.Join(dir, "merged.jsonl"), []string{path})
		if err != nil {
			t.Fatalf("merge of an accepted log: %v", err)
		}
		if merged.Done != st.Done || merged.ShardsComplete != st.ShardsComplete {
			t.Fatalf("merged log has %d runs and %d complete shards, want %d and %d",
				merged.Done, merged.ShardsComplete, st.Done, st.ShardsComplete)
		}
	})
}
