package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Pinned SHA-256 digests of the log bytes TestLogBytesPinned writes.
const (
	pinnedRunLogSHA256   = "82255e0675db8cde9a970ff2125e96fcc246d34bef4c1b6de6d79904144ccff8"
	pinnedMergeLogSHA256 = "b36377b3e1a7d118e0ce88124b8856c91ca0ee50c06406fdfa8c69cebefe59aa"
)

// TestLogBytesPinned pins the bytes of the campaign log: an untraced
// one-worker campaign that stops early with a ledger (header, runs,
// shard_done, stop and attr records), and the merge of two shard logs of
// its plan. Run records depend only on (plan, index) and one worker
// completes them in index order, so the files are fully determined; any
// change to how a record is encoded or which records a writer emits
// changes a digest.
func TestLogBytesPinned(t *testing.T) {
	g := golden(t, kernelSrc)
	plan := testPlan(t, g, 200, 20)
	dir := t.TempDir()
	ctx := context.Background()

	runLog := filepath.Join(dir, "run.jsonl")
	res, err := Run(ctx, g.Trace.Module, g, plan, RunOptions{
		LogPath: runLog, Workers: 1, Epsilon: 0.2, Ledger: testLedger(t, g),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("campaign did not stop early; the pin needs a stop record")
	}
	data := readFile(t, runLog)
	for _, kind := range []string{kindHeader, kindRun, kindShardDone, kindStop, kindAttr} {
		if !logHasKind(t, data, kind) {
			t.Fatalf("run log has no %s record", kind)
		}
	}
	if got := sha256Hex(data); got != pinnedRunLogSHA256 {
		t.Errorf("run log SHA-256 %s, want pinned %s", got, pinnedRunLogSHA256)
	}

	var shardLogs []string
	for i, shards := range [][]int{{0, 2, 4, 6, 8}, {1, 3, 5, 7, 9}} {
		path := filepath.Join(dir, "shard"+string(rune('a'+i))+".jsonl")
		if _, err := Run(ctx, g.Trace.Module, g, plan, RunOptions{LogPath: path, Workers: 1, Shards: shards}); err != nil {
			t.Fatal(err)
		}
		shardLogs = append(shardLogs, path)
	}
	merged := filepath.Join(dir, "merged.jsonl")
	if _, err := MergeLogs(merged, shardLogs); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(readFile(t, merged)); got != pinnedMergeLogSHA256 {
		t.Errorf("merged log SHA-256 %s, want pinned %s", got, pinnedMergeLogSHA256)
	}
}

func readFile(tb testing.TB, path string) []byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// logHasKind reports whether some line of a log is a record of kind.
func logHasKind(tb testing.TB, data []byte, kind string) bool {
	tb.Helper()
	for _, ln := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			tb.Fatal(err)
		}
		if rec.Kind == kind {
			return true
		}
	}
	return false
}
