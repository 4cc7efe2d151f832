package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/attr"
	"repro/internal/campaign"
	"repro/internal/fi"
	"repro/internal/interp"
)

// shardBody encodes recs as a results body, one JSON record per line.
func shardBody(recs []campaign.RunRec) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		enc.Encode(r)
	}
	return buf.Bytes()
}

// deliver posts body as shard's results with the given claimed hash
// straight to the coordinator's handler and returns the status code.
func deliver(c *Coordinator, plan *campaign.Plan, shard int, hash string, body []byte) int {
	url := fmt.Sprintf("%s?plan=%s&shard=%d&worker=w&hash=%s", PathResults, plan.ID, shard, hash)
	rw := httptest.NewRecorder()
	c.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
	return rw.Code
}

// executedShard runs shard of plan on a fresh runner and returns its
// records in wire form.
func executedShard(t testing.TB, g *interp.Result, plan *campaign.Plan, shard int) []campaign.RunRec {
	t.Helper()
	r, err := fi.NewRunner(g.Trace.Module, g, plan.FIConfig())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := plan.ShardRange(shard)
	recs := make([]campaign.RunRec, 0, hi-lo)
	for i, rec := range r.RunRange(lo, hi, 1) {
		recs = append(recs, campaign.NewRunRec(lo+int64(i), rec))
	}
	return recs
}

// TestBadRecordRejectedBeforeLog: a delivery whose records carry an
// outcome or exception kind outside its enum — with a matching claimed
// hash — is refused with 400 and never reaches the durable log, so the
// coordinator still restarts from that log.
func TestBadRecordRejectedBeforeLog(t *testing.T) {
	g := golden(t, kernelSrc)
	plan := testPlan(t, g, 40, 20)
	logPath := filepath.Join(t.TempDir(), "merged.jsonl")
	coord, err := NewCoordinator(CoordinatorConfig{Plan: plan, LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	good := executedShard(t, g, plan, 0)
	for name, corrupt := range map[string]func(*campaign.RunRec){
		"outcome": func(r *campaign.RunRec) { r.Outcome = 99 },
		"exc":     func(r *campaign.RunRec) { r.Exc = 99 },
	} {
		bad := append([]campaign.RunRec(nil), good...)
		corrupt(&bad[0])
		if code := deliver(coord, plan, 0, campaign.ShardHash(plan.ID, 0, bad), shardBody(bad)); code != http.StatusBadRequest {
			t.Fatalf("bad %s: status %d, want 400", name, code)
		}
	}
	if code := deliver(coord, plan, 0, campaign.ShardHash(plan.ID, 0, good), shardBody(good)); code != http.StatusOK {
		t.Fatalf("good delivery after the bad ones: status %d", code)
	}
	if err := coord.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	second, err := NewCoordinator(CoordinatorConfig{Plan: plan, LogPath: logPath})
	if err != nil {
		t.Fatalf("restart from the log: %v", err)
	}
	defer second.Shutdown(context.Background())
	if st := second.Status(); st.ShardsDone != 1 || st.RunsMerged != int64(len(good)) {
		t.Fatalf("restarted coordinator: %d shards done, %d runs merged", st.ShardsDone, st.RunsMerged)
	}
}

// FuzzResultsBody fuzzes the coordinator's results handler with arbitrary
// bodies whose claimed hash is the hash of whatever records decode, so
// bodies get past the hash gate into the merge path. The handler must
// never panic, and after it accepts a delivery the durable log must
// reopen with that shard done.
func FuzzResultsBody(f *testing.F) {
	g := golden(f, kernelSrc)
	plan := testPlan(f, g, 8, 4)
	cls := testClassifier(f, g)
	good := executedShard(f, g, plan, 1)
	f.Add(1, shardBody(good))
	bad := append([]campaign.RunRec(nil), good...)
	bad[0].Outcome = 99
	f.Add(1, shardBody(bad))
	f.Add(0, []byte(`{"index":0,"outcome":1}{"index":1,"outcome":2,"exc":1}`+"\n"+`{"index":2}{"index":3,"event":-5,"bit":99,"mask":18446744073709551615,"outcome":3}`))
	f.Add(0, []byte("{\"index\":0"))
	f.Fuzz(func(t *testing.T, shard int, body []byte) {
		logPath := filepath.Join(t.TempDir(), "merged.jsonl")
		coord, err := NewCoordinator(CoordinatorConfig{
			Plan: plan, LogPath: logPath, Ledger: attr.NewLedger(cls),
		})
		if err != nil {
			t.Fatal(err)
		}
		var recs []campaign.RunRec
		for dec := json.NewDecoder(bytes.NewReader(body)); dec.More(); {
			var r campaign.RunRec
			if dec.Decode(&r) != nil {
				break
			}
			recs = append(recs, r)
		}
		hash := campaign.ShardHash(plan.ID, shard, recs)
		accepted := deliver(coord, plan, shard, hash, body) == http.StatusOK
		// A redelivery takes the duplicate path.
		deliver(coord, plan, shard, hash, body)
		if err := coord.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !accepted {
			return
		}
		log, d, err := campaign.OpenDurableLog(logPath, plan)
		if err != nil {
			t.Fatalf("log of an accepted delivery does not reopen: %v", err)
		}
		defer log.Close()
		if !slices.Contains(d.CompleteShards(), shard) {
			t.Fatalf("accepted shard %d is not done in the reopened log", shard)
		}
	})
}
