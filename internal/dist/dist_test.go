package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/campaign"
	"repro/internal/epvf"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/mem"
	"repro/internal/obs"
)

const kernelSrc = `
void main() {
  long *a = malloc(40 * 8);
  int i;
  for (i = 0; i < 40; i = i + 1) { a[i] = i * 5; }
  long s = 0;
  for (i = 0; i < 40; i = i + 1) { s = s + a[i]; }
  output(s);
  free(a);
}
`

func golden(t testing.TB, src string) *interp.Result {
	t.Helper()
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func testPlan(t testing.TB, g *interp.Result, runs, shard int) *campaign.Plan {
	t.Helper()
	p, err := campaign.NewPlan(g.Trace.Module, g, campaign.PlanConfig{
		Benchmark: "kernel",
		Runs:      runs,
		ShardSize: shard,
		FI:        fi.Config{Seed: 41, JitterWindow: 16 * mem.PageSize},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// crashWorker registers, leases one shard over raw HTTP and then
// vanishes without heartbeats or results — the wire-level shape of a
// worker killed mid-shard.
func crashWorker(t *testing.T, base string, planID string) int {
	t.Helper()
	post := func(path string, in, out any) {
		body, _ := json.Marshal(in)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("crash worker POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("crash worker POST %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("crash worker decode %s: %v", path, err)
		}
	}
	var reg RegisterResponse
	post(PathRegister, RegisterRequest{Worker: "doomed", PlanID: planID}, &reg)
	var lease LeaseResponse
	post(PathLease, LeaseRequest{Worker: "doomed", PlanID: planID}, &lease)
	if lease.Lease == "" {
		t.Fatal("crash worker got no lease")
	}
	return lease.Shard
}

func TestDistributedCampaignSurvivesWorkerCrash(t *testing.T) {
	// Acceptance criterion: a coordinator with two workers completes the
	// plan while a third worker is killed mid-shard; the crashed shard is
	// requeued, nothing is double-merged, and the merged result is
	// bit-identical to a single-process run.
	g := golden(t, kernelSrc)
	plan := testPlan(t, g, 200, 25)

	baseline, err := campaign.Run(context.Background(), g.Trace.Module, g, plan, campaign.RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	logPath := filepath.Join(t.TempDir(), "merged.jsonl")
	coord, err := NewCoordinator(CoordinatorConfig{
		Plan:     plan,
		LogPath:  logPath,
		LeaseTTL: 300 * time.Millisecond,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + coord.Addr()
	defer coord.Shutdown(context.Background())

	// A worker leases shard 0 and dies without reporting.
	crashed := crashWorker(t, base, plan.ID)

	// Two healthy workers finish the campaign, including the requeued
	// shard once its lease expires.
	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := NewWorker(WorkerConfig{
				Coordinator: base,
				Name:        fmt.Sprintf("w%d", i),
				Module:      g.Trace.Module,
				Golden:      g,
				Workers:     2,
				Registry:    reg,
				RetryBase:   10 * time.Millisecond,
			})
			if err != nil {
				workerErrs[i] = err
				return
			}
			workerErrs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator did not complete: %v", err)
	}

	st := coord.Status()
	if st.ShardsRequeued < 1 {
		t.Errorf("crashed shard %d was never requeued (requeued=%d)", crashed, st.ShardsRequeued)
	}
	if st.ShardsDone != plan.NumShards() {
		t.Errorf("shards done = %d, want %d", st.ShardsDone, plan.NumShards())
	}
	if st.RunsMerged != plan.Runs {
		t.Errorf("runs merged = %d, want %d — at-least-once delivery double-merged", st.RunsMerged, plan.Runs)
	}

	res, err := coord.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(baseline.Records) {
		t.Fatalf("record counts differ: dist %d vs single-process %d", len(res.Records), len(baseline.Records))
	}
	for i := range baseline.Records {
		if res.Records[i] != baseline.Records[i] {
			t.Fatalf("record %d differs between distributed and single-process runs", i)
		}
	}
	for o, c := range baseline.Counts {
		if res.Counts[o] != c {
			t.Errorf("outcome %v: dist count %d != single-process %d", o, res.Counts[o], c)
		}
	}

	// The durable log is a standard campaign log: status and merge work.
	logStatus, err := campaign.ReadStatus(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if logStatus.Done != plan.Runs || logStatus.ShardsComplete != plan.NumShards() {
		t.Errorf("durable log incomplete: %d runs, %d shards", logStatus.Done, logStatus.ShardsComplete)
	}

	// Fleet metrics made it into the registry.
	snap := reg.Snapshot()
	if got := snap.Counter("epvf_dist_runs_merged_total", "id", plan.ID); got != plan.Runs {
		t.Errorf("epvf_dist_runs_merged_total = %d, want %d", got, plan.Runs)
	}
	if snap.Gauge("epvf_dist_shards_requeued", "id", plan.ID) < 1 {
		t.Error("requeue gauge never observed the crash")
	}
}

func TestCoordinatorRestartResumesFromDurableLog(t *testing.T) {
	// Crash-stop the coordinator after a partial merge; a new coordinator
	// on the same log must resume with those shards done and finish with
	// a bit-identical result.
	g := golden(t, kernelSrc)
	plan := testPlan(t, g, 120, 30)
	logPath := filepath.Join(t.TempDir(), "merged.jsonl")

	first, err := NewCoordinator(CoordinatorConfig{Plan: plan, LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// Deliver exactly two shards, then stop the coordinator.
	runner, err := fi.NewRunner(g.Trace.Module, g, plan.FIConfig())
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(base string, shard int) {
		t.Helper()
		lo, hi := plan.ShardRange(shard)
		records := runner.RunRange(lo, hi, 2)
		recs := make([]campaign.RunRec, len(records))
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i, rec := range records {
			recs[i] = campaign.NewRunRec(lo+int64(i), rec)
			enc.Encode(recs[i])
		}
		url := fmt.Sprintf("%s%s?plan=%s&shard=%d&worker=manual&hash=%s",
			base, PathResults, plan.ID, shard, campaign.ShardHash(plan.ID, shard, recs))
		resp, err := http.Post(url, "application/jsonl", &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("deliver shard %d: status %d", shard, resp.StatusCode)
		}
	}
	// Leases are not required for delivery (the work is valid regardless);
	// deliver two shards cold.
	deliver("http://"+first.Addr(), 0)
	deliver("http://"+first.Addr(), 2)
	if err := first.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	second, err := NewCoordinator(CoordinatorConfig{Plan: plan, LogPath: logPath, LeaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer second.Shutdown(context.Background())
	st := second.Status()
	if st.ShardsDone != 2 {
		t.Fatalf("restarted coordinator sees %d shards done, want 2", st.ShardsDone)
	}
	w, err := NewWorker(WorkerConfig{
		Coordinator: "http://" + second.Addr(),
		Name:        "finisher",
		Module:      g.Trace.Module,
		Golden:      g,
		RetryBase:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := second.Result()
	if err != nil {
		t.Fatal(err)
	}
	mono, err := campaign.Run(context.Background(), g.Trace.Module, g, plan, campaign.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range mono.Records {
		if res.Records[i] != mono.Records[i] {
			t.Fatalf("record %d differs after coordinator restart", i)
		}
	}
}

func TestStaleWorkerRejected(t *testing.T) {
	// A worker holding a different module must fail the capability
	// handshake before contributing anything.
	g := golden(t, kernelSrc)
	plan := testPlan(t, g, 50, 25)
	coord, err := NewCoordinator(CoordinatorConfig{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown(context.Background())

	stale := golden(t, `void main() { int x = 3; output(x * x); }`)
	w, err := NewWorker(WorkerConfig{
		Coordinator: "http://" + coord.Addr(),
		Name:        "stale",
		Module:      stale.Trace.Module,
		Golden:      stale,
		RetryBase:   time.Millisecond,
		Retries:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "handshake") && !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("stale worker ran with error %v, want handshake rejection", err)
	}
	if coord.Status().RunsMerged != 0 {
		t.Error("stale worker contributed results")
	}

	// Wire-level stale register is rejected with 409 too.
	body, _ := json.Marshal(RegisterRequest{Worker: "stale2", PlanID: "bogus"})
	resp, err := http.Post("http://"+coord.Addr()+PathRegister, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale register: status %d, want 409", resp.StatusCode)
	}
}

func TestWorkerDrainFinishesInFlightShard(t *testing.T) {
	// Cancelling a worker's context mid-campaign must deliver the shard
	// it is holding (no lost work) and then stop leasing.
	g := golden(t, kernelSrc)
	plan := testPlan(t, g, 100, 20)
	coord, err := NewCoordinator(CoordinatorConfig{Plan: plan, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown(context.Background())

	// Cancel the worker's context the instant its first lease is granted:
	// the drain signal then lands while the shard is in flight.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := &http.Client{Transport: &cancelAfterLease{rt: http.DefaultTransport, cancel: cancel}}
	w, err := NewWorker(WorkerConfig{
		Coordinator: "http://" + coord.Addr(),
		Name:        "drainer",
		Module:      g.Trace.Module,
		Golden:      g,
		Client:      client,
		RetryBase:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("drain returned error: %v", err)
	}
	st := coord.Status()
	if st.ShardsDone == 0 {
		t.Error("drained worker delivered nothing — in-flight shard was dropped")
	}
	if st.ShardsDone == plan.NumShards() {
		t.Error("drained worker finished the whole campaign — drain did not stop leasing")
	}
}

// cancelAfterLease buffers each response body and fires cancel once the
// first granted lease passes through, so the caller's context is
// cancelled while that shard executes.
type cancelAfterLease struct {
	rt     http.RoundTripper
	cancel func()
	once   sync.Once
}

func (c *cancelAfterLease) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, PathLease) {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var lease LeaseResponse
	if json.Unmarshal(body, &lease) == nil && lease.Lease != "" {
		c.once.Do(c.cancel)
	}
	return resp, nil
}

// TestWorkerExitsCleanlyWhenCoordinatorGone covers the fleet wind-down
// path: `campaign serve` exits as soon as the last shard merges, so a
// worker left polling for more work (its shards were taken by others)
// must treat the vanished coordinator as a clean exit, not an error.
func TestWorkerExitsCleanlyWhenCoordinatorGone(t *testing.T) {
	g := golden(t, kernelSrc)
	plan := testPlan(t, g, 20, 20)
	coord, err := NewCoordinator(CoordinatorConfig{Plan: plan, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	// Another worker holds the only shard, so the real worker polls.
	crashWorker(t, "http://"+coord.Addr(), plan.ID)

	// shutdownAfterWait kills the coordinator once the worker has been
	// told to poll — from then on every lease request gets connection
	// refused.
	var once sync.Once
	client := &http.Client{Transport: roundTripperFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil || !strings.HasSuffix(req.URL.Path, PathLease) {
			return resp, err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var lease LeaseResponse
		if json.Unmarshal(body, &lease) == nil && lease.Lease == "" && !lease.Done {
			once.Do(func() { coord.Shutdown(context.Background()) })
		}
		return resp, nil
	})}
	w, err := NewWorker(WorkerConfig{
		Coordinator: "http://" + coord.Addr(),
		Name:        "poller",
		Module:      g.Trace.Module,
		Golden:      g,
		Client:      client,
		RetryBase:   time.Millisecond,
		Retries:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("polling worker errored on vanished coordinator: %v", err)
	}
}

type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

func TestDuplicateDeliveryDedupes(t *testing.T) {
	g := golden(t, kernelSrc)
	plan := testPlan(t, g, 40, 20)
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{Plan: plan, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown(context.Background())

	runner, err := fi.NewRunner(g.Trace.Module, g, plan.FIConfig())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := plan.ShardRange(0)
	records := runner.RunRange(lo, hi, 1)
	recs := make([]campaign.RunRec, len(records))
	for i, rec := range records {
		recs[i] = campaign.NewRunRec(lo+int64(i), rec)
	}
	hash := campaign.ShardHash(plan.ID, 0, recs)
	post := func(h string) (*http.Response, error) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, r := range recs {
			enc.Encode(r)
		}
		url := fmt.Sprintf("http://%s%s?plan=%s&shard=0&worker=dup&hash=%s", coord.Addr(), PathResults, plan.ID, h)
		return http.Post(url, "application/jsonl", &buf)
	}
	resp, err := post(hash)
	if err != nil {
		t.Fatal(err)
	}
	var rr ResultResponse
	json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if !rr.Merged || rr.Duplicate {
		t.Fatalf("first delivery: %+v", rr)
	}
	// Exact redelivery: deduped, not double-merged.
	resp, err = post(hash)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if rr.Merged || !rr.Duplicate {
		t.Fatalf("redelivery: %+v", rr)
	}
	if got := coord.Status().RunsMerged; got != hi-lo {
		t.Fatalf("runs merged = %d after redelivery, want %d", got, hi-lo)
	}
	// Divergent redelivery (claimed hash matches its own content but not
	// the merged shard): rejected with 409.
	recs[0].Mask ^= 1
	resp, err = post(campaign.ShardHash(plan.ID, 0, recs))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("divergent redelivery: status %d, want 409", resp.StatusCode)
	}
}

// testClassifier builds the attribution classifier for a golden run, the
// same way buildLedger does in cmd/campaign.
func testClassifier(t testing.TB, g *interp.Result) *attr.Classifier {
	t.Helper()
	return attr.NewClassifier(epvf.AnalyzeTrace(g.Trace, epvf.Config{}))
}

// TestLedgerBitIdenticalAcrossFabric is the distributed half of the
// attribution acceptance criterion: a coordinator aggregating per-shard
// ledger contributions — through a worker crash and shard requeue — ends
// with a snapshot byte-identical to a single-process streaming run of
// the same plan.
func TestLedgerBitIdenticalAcrossFabric(t *testing.T) {
	g := golden(t, kernelSrc)
	plan := testPlan(t, g, 200, 25)
	cls := testClassifier(t, g)

	// Single-process baseline, streamed through the engine's observer.
	streamLedger := attr.NewLedger(cls)
	baseline, err := campaign.Run(context.Background(), g.Trace.Module, g, plan,
		campaign.RunOptions{Workers: 4, Ledger: streamLedger})
	if err != nil {
		t.Fatal(err)
	}
	want := streamLedger.Snapshot()
	// The streaming snapshot is itself the batch collection of the
	// result records — both feed the same cells.
	if batch := attr.Collect(cls, baseline.Records); batch.Hash() != want.Hash() {
		t.Fatalf("streaming snapshot %s != batch collection %s", want.Hash(), batch.Hash())
	}

	coord, err := NewCoordinator(CoordinatorConfig{
		Plan:     plan,
		LeaseTTL: 300 * time.Millisecond,
		Ledger:   attr.NewLedger(cls),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + coord.Addr()
	defer coord.Shutdown(context.Background())

	// One worker dies holding a lease; two classifier-carrying workers
	// finish the campaign including the requeued shard.
	crashWorker(t, base, plan.ID)
	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := NewWorker(WorkerConfig{
				Coordinator: base,
				Name:        fmt.Sprintf("lw%d", i),
				Module:      g.Trace.Module,
				Golden:      g,
				Workers:     2,
				Classifier:  cls,
				RetryBase:   10 * time.Millisecond,
			})
			if err != nil {
				workerErrs[i] = err
				return
			}
			workerErrs[i] = w.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator did not complete: %v", err)
	}

	got := coord.Ledger().Snapshot()
	if got.Runs != plan.Runs {
		t.Fatalf("coordinator ledger observed %d runs, want %d — requeue double-counted or dropped a shard",
			got.Runs, plan.Runs)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("distributed ledger diverges from single-process streaming\ngot:  %s\nwant: %s", gotJSON, wantJSON)
	}
	if got.Hash() != want.Hash() {
		t.Errorf("ledger hash %s != single-process %s", got.Hash(), want.Hash())
	}
}

// TestLedgerDedupeRejectAndRestart covers the remaining ledger fault
// paths at the wire level: duplicate delivery never double-counts, an
// lhash mismatch (classifier skew) is rejected with 409 before
// absorption, and a restarted coordinator reseeds its ledger from the
// durable log's replayed records.
func TestLedgerDedupeRejectAndRestart(t *testing.T) {
	g := golden(t, kernelSrc)
	plan := testPlan(t, g, 40, 20)
	cls := testClassifier(t, g)
	logPath := filepath.Join(t.TempDir(), "merged.jsonl")
	coord, err := NewCoordinator(CoordinatorConfig{
		Plan: plan, LogPath: logPath, Ledger: attr.NewLedger(cls),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	runner, err := fi.NewRunner(g.Trace.Module, g, plan.FIConfig())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := plan.ShardRange(0)
	records := runner.RunRange(lo, hi, 1)
	recs := make([]campaign.RunRec, len(records))
	for i, rec := range records {
		recs[i] = campaign.NewRunRec(lo+int64(i), rec)
	}
	hash := campaign.ShardHash(plan.ID, 0, recs)
	lhash := attr.Collect(cls, records).Hash()
	post := func(lh string) *http.Response {
		t.Helper()
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, r := range recs {
			enc.Encode(r)
		}
		url := fmt.Sprintf("http://%s%s?plan=%s&shard=0&worker=dup&hash=%s&lhash=%s",
			coord.Addr(), PathResults, plan.ID, hash, lh)
		resp, err := http.Post(url, "application/jsonl", &buf)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Claimed ledger hash diverging from the verified records: rejected
	// before anything is absorbed.
	resp := post("deadbeefdeadbeef")
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("lhash mismatch: status %d, want 409", resp.StatusCode)
	}
	if n := coord.Ledger().Runs(); n != 0 {
		t.Fatalf("rejected delivery still fed the ledger: %d runs", n)
	}

	// First honest delivery absorbs exactly the shard's records.
	resp = post(lhash)
	resp.Body.Close()
	if n := coord.Ledger().Runs(); n != hi-lo {
		t.Fatalf("ledger runs = %d after first delivery, want %d", n, hi-lo)
	}
	afterFirst := coord.Ledger().Snapshot().Hash()

	// Exact redelivery is deduped before absorption.
	resp = post(lhash)
	resp.Body.Close()
	if n := coord.Ledger().Runs(); n != hi-lo {
		t.Fatalf("ledger runs = %d after redelivery, want %d — duplicate was double-counted", n, hi-lo)
	}
	if h := coord.Ledger().Snapshot().Hash(); h != afterFirst {
		t.Fatalf("ledger hash changed across redelivery: %s != %s", h, afterFirst)
	}

	// A restarted coordinator reseeds the ledger from the durable log.
	if err := coord.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	second, err := NewCoordinator(CoordinatorConfig{
		Plan: plan, LogPath: logPath, Ledger: attr.NewLedger(cls),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := second.Ledger().Runs(); n != hi-lo {
		t.Fatalf("restarted coordinator ledger has %d runs, want %d", n, hi-lo)
	}
	if h := second.Ledger().Snapshot().Hash(); h != afterFirst {
		t.Fatalf("restarted ledger hash %s != pre-restart %s", h, afterFirst)
	}
}

// TestTraceSurvivesRequeueAndRedelivery is the tracing half of the
// at-least-once acceptance criterion: a campaign that suffers a worker
// crash (shard requeue) and an exact result redelivery must still yield
// exactly one connected span tree with no double-counted spans, because
// every process derives the same deterministic span IDs from the plan
// and the coordinator dedups by span ID — the trace analogue of the
// ShardHash record dedup.
func TestTraceSurvivesRequeueAndRedelivery(t *testing.T) {
	g := golden(t, kernelSrc)
	plan := testPlan(t, g, 100, 25)
	reg := obs.NewRegistry()
	ctr := obs.NewTracer(nil)
	ctr.SetProc("coordinator")
	logPath := filepath.Join(t.TempDir(), "merged.jsonl")
	coord, err := NewCoordinator(CoordinatorConfig{
		Plan:     plan,
		LogPath:  logPath,
		LeaseTTL: 300 * time.Millisecond,
		Registry: reg,
		Tracer:   ctr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + coord.Addr()
	defer coord.Shutdown(context.Background())

	// A worker leases a shard and dies: that shard requeues and its spans
	// arrive later from whichever worker re-executes it.
	crashWorker(t, base, plan.ID)

	wtr := obs.NewTracer(nil)
	wtr.SetProc("w1")
	w, err := NewWorker(WorkerConfig{
		Coordinator: base,
		Name:        "w1",
		Module:      g.Trace.Module,
		Golden:      g,
		Workers:     2,
		Registry:    reg,
		RetryBase:   10 * time.Millisecond,
		Tracer:      wtr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// Exact duplicate result delivery after completion, carrying the shard
	// trace context exactly as a redelivering worker would: deduped, and
	// no second merge span may appear in the log.
	runner, err := fi.NewRunner(g.Trace.Module, g, plan.FIConfig())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := plan.ShardRange(0)
	records := runner.RunRange(lo, hi, 1)
	recs := make([]campaign.RunRec, len(records))
	for i, rec := range records {
		recs[i] = campaign.NewRunRec(lo+int64(i), rec)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		enc.Encode(r)
	}
	url := fmt.Sprintf("%s%s?plan=%s&shard=0&worker=dup&hash=%s",
		base, PathResults, plan.ID, campaign.ShardHash(plan.ID, 0, recs))
	req, err := http.NewRequest(http.MethodPost, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	root := campaign.TraceContext(plan.ID)
	obs.InjectTraceHeader(req.Header, obs.SpanContext{TraceID: root.TraceID, SpanID: campaign.ShardSpanID(plan.ID, 0)})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rr ResultResponse
	json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if rr.Merged || !rr.Duplicate {
		t.Fatalf("redelivery: %+v", rr)
	}

	// Exact duplicate span shipment (requeue re-ships identical IDs):
	// acknowledged as duplicate, nothing re-appended.
	shardSpan := obs.SpanRecord{
		Name:     "shard 0",
		TraceID:  root.TraceID,
		SpanID:   campaign.ShardSpanID(plan.ID, 0),
		ParentID: root.SpanID,
		Proc:     "w2",
		Depth:    1,
	}
	body, _ := json.Marshal([]obs.SpanRecord{shardSpan})
	resp, err = http.Post(fmt.Sprintf("%s%s?plan=%s&shard=0&worker=w2", base, PathSpans, plan.ID),
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr SpansResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if sr.Merged || !sr.Duplicate {
		t.Fatalf("duplicate span shipment: %+v", sr)
	}

	// The durable log carries each span exactly once: one connected tree,
	// no orphans, both processes, and deterministic shard/merge spans
	// despite requeue and redelivery.
	d, err := campaign.ReadLogData(logPath)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	merges := 0
	for _, sp := range d.Spans {
		seen[sp.TraceID+"/"+sp.SpanID]++
		if sp.Name == "merge shard 0" {
			merges++
		}
	}
	for id, n := range seen {
		if n > 1 {
			t.Errorf("span %s appears %d times in the durable log", id, n)
		}
	}
	if merges != 1 {
		t.Errorf("merge spans for shard 0 = %d, want exactly 1 after redelivery", merges)
	}
	trees := obs.BuildSpanTrees(d.Spans)
	if len(trees) != 1 {
		t.Fatalf("span trees = %d, want one connected trace", len(trees))
	}
	tr := trees[0]
	if len(tr.Roots) != 1 || tr.Orphans != 0 {
		t.Fatalf("trace has %d roots, %d orphans:\n%s", len(tr.Roots), tr.Orphans, tr.RenderWaterfall())
	}
	procs := strings.Join(tr.Procs, ",")
	if !strings.Contains(procs, "coordinator") || !strings.Contains(procs, "w1") {
		t.Errorf("trace procs = %v, want coordinator and w1", tr.Procs)
	}
	// Every shard span is present under the root with its deterministic ID,
	// and each merge span parents under the shard span whose Traceparent
	// header the worker sent — the cross-process round trip.
	byID := map[string]obs.SpanRecord{}
	for _, sp := range d.Spans {
		byID[sp.SpanID] = sp
	}
	for s := 0; s < plan.NumShards(); s++ {
		sp, ok := byID[campaign.ShardSpanID(plan.ID, s)]
		if !ok {
			t.Errorf("shard %d span missing", s)
			continue
		}
		if sp.ParentID != root.SpanID {
			t.Errorf("shard %d span parent = %s, want campaign root", s, sp.ParentID)
		}
	}
	mergeParents := 0
	for _, sp := range d.Spans {
		if strings.HasPrefix(sp.Name, "merge shard ") {
			if parent, ok := byID[sp.ParentID]; !ok || !strings.HasPrefix(parent.Name, "shard ") {
				t.Errorf("%s parent %s is not a shard span", sp.Name, sp.ParentID)
			} else {
				mergeParents++
			}
		}
	}
	if mergeParents != plan.NumShards() {
		t.Errorf("merge spans correctly parented = %d, want %d", mergeParents, plan.NumShards())
	}
	snap := reg.Snapshot()
	if snap.Counter("epvf_dist_spans_merged_total", "id", plan.ID) == 0 {
		t.Error("epvf_dist_spans_merged_total never incremented")
	}
	if snap.Counter("epvf_dist_spans_duplicate_total", "id", plan.ID) == 0 {
		t.Error("epvf_dist_spans_duplicate_total missed the duplicate shipment")
	}
}

// postSpans posts a span batch to a coordinator and returns the status
// and decoded reply.
func postSpans(t *testing.T, base, planID string, spans []obs.SpanRecord) (int, SpansResponse) {
	t.Helper()
	body, err := json.Marshal(spans)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fmt.Sprintf("%s%s?plan=%s&shard=0&worker=w1", base, PathSpans, planID),
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SpansResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, sr
}

// TestLargeSpanBatchKeepsLogReadable: a span batch larger than one log
// line is split across records, so a restarted coordinator replays the
// log with every span; a single span too large for any line is refused
// with 400 and leaves the log untouched.
func TestLargeSpanBatchKeepsLogReadable(t *testing.T) {
	const n = 30000
	g := golden(t, kernelSrc)
	plan := testPlan(t, g, 100, 25)
	logPath := filepath.Join(t.TempDir(), "merged.jsonl")
	coord, err := NewCoordinator(CoordinatorConfig{Plan: plan, LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + coord.Addr()
	root := campaign.TraceContext(plan.ID)
	spans := make([]obs.SpanRecord, n)
	for i := range spans {
		spans[i] = obs.SpanRecord{
			Name:     fmt.Sprintf("injection %d", i),
			TraceID:  root.TraceID,
			SpanID:   fmt.Sprintf("%016x", i+1),
			ParentID: root.SpanID,
			Proc:     "w1",
			Depth:    2,
			Start:    time.Unix(1_700_000_000, int64(i)).UTC(),
			WallNS:   int64(1000 + i),
		}
	}
	if body, _ := json.Marshal(spans); len(body) <= 4<<20 {
		t.Fatalf("batch is %d bytes, want more than one 4 MiB log line", len(body))
	}
	if code, sr := postSpans(t, base, plan.ID, spans); code != http.StatusOK || !sr.Merged {
		t.Fatalf("large batch: status %d, reply %+v", code, sr)
	}
	huge := obs.SpanRecord{Name: strings.Repeat("x", 5<<20), TraceID: root.TraceID, SpanID: "huge", Proc: "w1"}
	if code, _ := postSpans(t, base, plan.ID, []obs.SpanRecord{huge}); code != http.StatusBadRequest {
		t.Fatalf("oversized span: status %d, want 400", code)
	}
	if err := coord.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	second, err := NewCoordinator(CoordinatorConfig{Plan: plan, LogPath: logPath})
	if err != nil {
		t.Fatalf("restart on the log: %v", err)
	}
	defer second.Shutdown(context.Background())
	d, err := campaign.ReadLogData(logPath)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, sp := range d.Spans {
		got[sp.SpanID] = true
	}
	for _, sp := range spans {
		if !got[sp.SpanID] {
			t.Fatalf("span %s missing after restart (%d of %d replayed)", sp.SpanID, len(got), n)
		}
	}
	if got["huge"] {
		t.Fatal("refused span reached the log")
	}
}
