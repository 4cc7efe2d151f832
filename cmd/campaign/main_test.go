package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/serve"
)

func TestPlanRunResumeStatusMerge(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "lud.jsonl")
	common := []string{"-bench", "lud", "-runs", "90", "-shard-size", "30", "-jitter", "0"}

	var plan strings.Builder
	if err := run(append([]string{"plan"}, common...), &plan); err != nil {
		t.Fatalf("plan: %v", err)
	}
	if !strings.Contains(plan.String(), "3 x 30") {
		t.Errorf("plan output missing shard geometry:\n%s", plan.String())
	}

	// Budgeted first slice, then resume to completion.
	var out strings.Builder
	if err := run(append([]string{"run", "-log", logPath, "-budget", "40", "-q"}, common...), &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "campaign incomplete") {
		t.Errorf("budgeted run did not report incompleteness:\n%s", out.String())
	}
	out.Reset()
	if err := run(append([]string{"resume", "-log", logPath, "-q"}, common...), &out); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if strings.Contains(out.String(), "campaign incomplete") {
		t.Errorf("resumed campaign still incomplete:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"status", "-log", logPath}, &out); err != nil {
		t.Fatalf("status: %v", err)
	}
	if !strings.Contains(out.String(), "90/90") {
		t.Errorf("status missing run tally:\n%s", out.String())
	}

	merged := filepath.Join(dir, "merged.jsonl")
	out.Reset()
	if err := run([]string{"merge", "-out", merged, logPath}, &out); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !strings.Contains(out.String(), "90/90") {
		t.Errorf("merge status missing tally:\n%s", out.String())
	}
}

func TestStatusJSON(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "mm.jsonl")
	common := []string{"-bench", "mm", "-runs", "40", "-shard-size", "20", "-jitter", "0", "-q"}
	var out strings.Builder
	if err := run(append([]string{"run", "-log", logPath}, common...), &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	out.Reset()
	if err := run([]string{"status", "-json", "-log", logPath}, &out); err != nil {
		t.Fatalf("status -json: %v", err)
	}
	var st campaign.StatusJSON
	if err := json.Unmarshal([]byte(out.String()), &st); err != nil {
		t.Fatalf("status output is not valid StatusJSON: %v\n%s", err, out.String())
	}
	if st.Benchmark != "mm" || st.Done != 40 || st.PlannedRuns != 40 || st.NumShards != 2 {
		t.Errorf("status fields: %+v", st)
	}
	var n int64
	for _, o := range st.Outcomes {
		n += o.Count
	}
	if n != 40 {
		t.Errorf("outcome tallies sum to %d, want 40", n)
	}
}

// TestRunWithObsAddr drives the acceptance flow at the CLI layer: a run
// with -obs-addr serves Prometheus metrics and the /campaign status view.
func TestRunWithObsAddr(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "lud.jsonl")
	var out strings.Builder
	err := run([]string{"run", "-bench", "lud", "-runs", "60", "-shard-size", "30",
		"-jitter", "0", "-log", logPath, "-obs-addr", "127.0.0.1:0", "-q"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// The server is closed when run returns; the address line proves it
	// was up, and the campaign output proves the monitor fed the table.
	if !strings.Contains(out.String(), "observability: serving http://127.0.0.1:") {
		t.Errorf("missing obs address line:\n%s", out.String())
	}
}

func TestShardedInvocations(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	common := []string{"-bench", "mm", "-runs", "60", "-shard-size", "20", "-jitter", "0", "-q"}
	var out strings.Builder
	if err := run(append([]string{"run", "-log", a, "-shards", "0,2"}, common...), &out); err != nil {
		t.Fatalf("shard run a: %v", err)
	}
	if err := run(append([]string{"run", "-log", b, "-shards", "1"}, common...), &out); err != nil {
		t.Fatalf("shard run b: %v", err)
	}
	merged := filepath.Join(dir, "m.jsonl")
	out.Reset()
	if err := run([]string{"merge", "-out", merged, a, b}, &out); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !strings.Contains(out.String(), "60/60") || !strings.Contains(out.String(), "3/3") {
		t.Errorf("merged shards incomplete:\n%s", out.String())
	}
}

// syncWriter lets the test read serve's progress output while the
// coordinator goroutine is still writing it.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// startCoordinator runs `campaign serve` with args on an ephemeral port
// in a goroutine and returns the base URL it announces, its output and
// the channel its exit error arrives on.
func startCoordinator(t *testing.T, args []string) (string, *syncWriter, <-chan error) {
	t.Helper()
	out := &syncWriter{}
	errc := make(chan error, 1)
	go func() {
		errc <- run(append([]string{"serve", "-addr", "127.0.0.1:0"}, args...), out)
	}()
	const marker = "campaign work -coordinator "
	deadline := time.Now().Add(10 * time.Second)
	for {
		if i := strings.Index(out.String(), marker); i >= 0 {
			return strings.Fields(out.String()[i+len(marker):])[0], out, errc
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never announced its address:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeWorkEndToEnd drives a distributed campaign entirely through
// the CLI entry points: `serve` on an ephemeral port, one `work` process
// joining it, and the merged log bit-identical to a single-process `run`
// of the same plan (checked by merging the two logs, which rejects any
// conflicting record).
func TestServeWorkEndToEnd(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-bench", "mm", "-runs", "60", "-shard-size", "20", "-jitter", "0"}

	mono := filepath.Join(dir, "mono.jsonl")
	var out strings.Builder
	if err := run(append([]string{"run", "-log", mono, "-q"}, common...), &out); err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	distLog := filepath.Join(dir, "dist.jsonl")
	coordURL, serveOut, serveErr := startCoordinator(t, append([]string{"-log", distLog}, common...))

	var workOut strings.Builder
	if err := run([]string{"work", "-coordinator", coordURL, "-bench", "mm", "-name", "w0"}, &workOut); err != nil {
		t.Fatalf("work: %v\n%s", err, workOut.String())
	}
	if !strings.Contains(workOut.String(), "campaign complete") {
		t.Errorf("worker did not see completion:\n%s", workOut.String())
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}
	if !strings.Contains(serveOut.String(), "worker w0 delivered 3 shards") {
		t.Errorf("serve output missing worker tally:\n%s", serveOut.String())
	}

	// Merging the single-process and distributed logs errors on any
	// conflicting record, so success proves them bit-identical.
	merged := filepath.Join(dir, "merged.jsonl")
	out.Reset()
	if err := run([]string{"merge", "-out", merged, mono, distLog}, &out); err != nil {
		t.Fatalf("distributed log diverges from single-process run: %v", err)
	}
	if !strings.Contains(out.String(), "60/60") {
		t.Errorf("merged log incomplete:\n%s", out.String())
	}
}

// TestAttrJSONByteIdenticalAcrossDistribution is the attribution
// acceptance criterion at the CLI layer: `campaign attr -json` over a
// merged multi-process log is byte-identical to the same command over a
// single-process log of the plan.
func TestAttrJSONByteIdenticalAcrossDistribution(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-bench", "mm", "-runs", "60", "-shard-size", "20", "-jitter", "0", "-q"}

	mono := filepath.Join(dir, "mono.jsonl")
	var out strings.Builder
	if err := run(append([]string{"run", "-log", mono}, common...), &out); err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	// The "distributed" log: two independent sharded processes, merged —
	// the same record-merge machinery the dist coordinator feeds.
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	if err := run(append([]string{"run", "-log", a, "-shards", "0,2"}, common...), &out); err != nil {
		t.Fatalf("shard run a: %v", err)
	}
	if err := run(append([]string{"run", "-log", b, "-shards", "1"}, common...), &out); err != nil {
		t.Fatalf("shard run b: %v", err)
	}
	merged := filepath.Join(dir, "merged.jsonl")
	if err := run([]string{"merge", "-out", merged, a, b}, &out); err != nil {
		t.Fatalf("merge: %v", err)
	}

	attrJSON := func(logPath string, extra ...string) string {
		t.Helper()
		var o strings.Builder
		args := append([]string{"attr", "-json", "-log", logPath, "-bench", "mm"}, extra...)
		if err := run(args, &o); err != nil {
			t.Fatalf("attr -json %s: %v", logPath, err)
		}
		return o.String()
	}
	monoJSON := attrJSON(mono)
	mergedJSON := attrJSON(merged)
	if monoJSON != mergedJSON {
		t.Errorf("attr -json diverges between single-process and merged logs\nmono:   %s\nmerged: %s",
			monoJSON, mergedJSON)
	}
	var view struct {
		Hash    string `json:"hash"`
		Summary struct {
			Runs int64 `json:"runs"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(monoJSON), &view); err != nil {
		t.Fatalf("attr -json output is not JSON: %v\n%s", err, monoJSON)
	}
	if view.Hash == "" || view.Summary.Runs != 60 {
		t.Errorf("attr -json hash=%q runs=%d, want non-empty hash and 60 runs", view.Hash, view.Summary.Runs)
	}

	// The single-process log carries a cached snapshot, so -bench is
	// optional there — and the cached and recomputed hashes agree.
	var cached strings.Builder
	if err := run([]string{"attr", "-json", "-log", mono}, &cached); err != nil {
		t.Fatalf("attr -json cached: %v", err)
	}
	var cview struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal([]byte(cached.String()), &cview); err != nil {
		t.Fatal(err)
	}
	if cview.Hash != view.Hash {
		t.Errorf("cached snapshot hash %s != recomputed %s", cview.Hash, view.Hash)
	}

	// The merged log dropped the cached snapshots; without a module to
	// recompute from, attr must explain itself.
	if err := run([]string{"attr", "-log", merged}, &out); err == nil ||
		!strings.Contains(err.Error(), "no attribution snapshot") {
		t.Errorf("attr on merged log without -bench: err=%v, want no-snapshot explanation", err)
	}

	// Text and HTML renderings of the same ledger.
	out.Reset()
	if err := run([]string{"attr", "-log", mono, "-bench", "mm", "-top", "5"}, &out); err != nil {
		t.Fatalf("attr text: %v", err)
	}
	if !strings.Contains(out.String(), "Attribution summary") ||
		!strings.Contains(out.String(), "Outcomes by predicted bit-class") {
		t.Errorf("attr text output missing tables:\n%s", out.String())
	}
	htmlPath := filepath.Join(dir, "attr.html")
	out.Reset()
	if err := run([]string{"attr", "-log", mono, "-bench", "mm", "-html", htmlPath}, &out); err != nil {
		t.Fatalf("attr -html: %v", err)
	}
	html, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(html), "<!DOCTYPE html>") || !strings.Contains(string(html), "</html>") {
		t.Errorf("attr.html is not a well-formed document (%d bytes)", len(html))
	}
}

func TestCLIErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("empty invocation accepted")
	}
	if err := run([]string{"bogus"}, &out); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"run", "-bench", "lud"}, &out); err == nil {
		t.Error("run without -log accepted")
	}
	if err := run([]string{"run", "-bench", "ghost", "-log", "x"}, &out); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run([]string{"status"}, &out); err == nil {
		t.Error("status without log accepted")
	}
	if err := run([]string{"merge", "-out", "x"}, &out); err == nil {
		t.Error("merge without inputs accepted")
	}
	if err := run([]string{"serve", "-bench", "lud"}, &out); err == nil {
		t.Error("serve without -log accepted")
	}
	if err := run([]string{"work", "-bench", "lud"}, &out); err == nil {
		t.Error("work without -coordinator accepted")
	}
}

// startDaemon brings up an in-process analysis daemon (epvf serve) for
// the -server flows.
func startDaemon(t *testing.T) string {
	t.Helper()
	s, err := serve.New(serve.Config{Addr: "127.0.0.1:0", CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s.Addr()
}

// TestRunWithServerFetchAndPublish drives the cached-campaign flow: a
// completed run publishes its log to the daemon; a second process with
// the same plan and an empty log directory fetches it and replays to
// completion without injecting; the logs are bit-identical.
func TestRunWithServerFetchAndPublish(t *testing.T) {
	addr := startDaemon(t)
	dir := t.TempDir()
	common := []string{"-bench", "mm", "-runs", "60", "-shard-size", "20", "-jitter", "0", "-q", "-server", addr}

	first := filepath.Join(dir, "first.jsonl")
	var out strings.Builder
	if err := run(append([]string{"run", "-log", first}, common...), &out); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if !strings.Contains(out.String(), "published log for plan ") {
		t.Fatalf("first run did not publish:\n%s", out.String())
	}
	planID := strings.Fields(strings.SplitN(out.String(), "published log for plan ", 2)[1])[0]

	second := filepath.Join(dir, "second.jsonl")
	out.Reset()
	if err := run(append([]string{"run", "-log", second}, common...), &out); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !strings.Contains(out.String(), "fetched cached log for plan "+planID) {
		t.Errorf("second run did not fetch the cached log:\n%s", out.String())
	}
	// Render shows a complete campaign with zero executed injections.
	if !strings.Contains(out.String(), "runs replayed from log") {
		t.Logf("render:\n%s", out.String())
	}
	// Merging rejects conflicting records, so success proves the fetched
	// log bit-identical to the locally computed one.
	merged := filepath.Join(dir, "merged.jsonl")
	out.Reset()
	if err := run([]string{"merge", "-out", merged, first, second}, &out); err != nil {
		t.Fatalf("fetched log diverges from computed log: %v", err)
	}
	if !strings.Contains(out.String(), "60/60") {
		t.Errorf("merged log incomplete:\n%s", out.String())
	}

	// The attribution snapshot was published too: `attr -server -plan`
	// renders it with no local log, byte-identical to the log's cached
	// snapshot.
	var fromLog, fromDaemon strings.Builder
	if err := run([]string{"attr", "-json", "-log", first}, &fromLog); err != nil {
		t.Fatalf("attr from log: %v", err)
	}
	if err := run([]string{"attr", "-json", "-server", addr, "-plan", planID}, &fromDaemon); err != nil {
		t.Fatalf("attr from daemon: %v", err)
	}
	if fromLog.String() != fromDaemon.String() {
		t.Errorf("daemon attr JSON diverges from log attr JSON:\nlog:    %s\ndaemon: %s",
			fromLog.String(), fromDaemon.String())
	}
}

func TestAttrServerErrors(t *testing.T) {
	addr := startDaemon(t)
	var out strings.Builder
	if err := run([]string{"attr", "-server", addr, "-plan", "feedbeef00000000"}, &out); err == nil ||
		!strings.Contains(err.Error(), "no attribution snapshot") {
		t.Errorf("missing snapshot: err = %v", err)
	}
	if err := run([]string{"attr", "-server", addr}, &out); err == nil {
		t.Error("attr -server without -plan or -log accepted")
	}
}

// TestServeHealthz asserts the unified coordinator server exposes
// /healthz with a fleet section alongside the /v1 worker protocol.
func TestServeHealthz(t *testing.T) {
	dir := t.TempDir()
	distLog := filepath.Join(dir, "dist.jsonl")
	coordURL, _, serveErr := startCoordinator(t, []string{"-bench", "mm", "-runs", "60", "-shard-size", "20",
		"-jitter", "0", "-log", distLog})
	resp, err := http.Get(coordURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d\n%s", resp.StatusCode, body)
	}
	var doc struct {
		Status string `json:"status"`
		Fleet  struct {
			NumShards int `json:"num_shards"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("healthz JSON: %v\n%s", err, body)
	}
	if doc.Status != "ok" || doc.Fleet.NumShards != 3 {
		t.Errorf("healthz = %s", body)
	}
	// Metrics live on the same server as the worker protocol.
	mresp, err := http.Get(coordURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "epvf_dist_shards") {
		t.Errorf("/metrics missing coordinator gauges:\n%.400s", mbody)
	}
	// Finish the campaign so serve exits cleanly.
	var workOut strings.Builder
	if err := run([]string{"work", "-coordinator", coordURL, "-bench", "mm", "-name", "w0"}, &workOut); err != nil {
		t.Fatalf("work: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
