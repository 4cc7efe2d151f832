package campaign

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fi"
	"repro/internal/obs"
)

// fakeClock drives the monitor's injectable time source.
type fakeClock struct {
	t time.Time
}

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestProgressThrottle pins the printEvery contract: the first record
// prints, records inside the window are silent, and advancing the clock
// past the window prints again.
func TestProgressThrottle(t *testing.T) {
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 100, 50)
	var buf strings.Builder
	mon := NewMonitor(nil)
	clk := &fakeClock{t: time.Unix(5000, 0)}
	mon.SetClock(clk.now)
	mon.begin(p, &buf, nil)

	rec := fi.Record{Outcome: fi.OutcomeBenign}
	mon.record(rec, time.Millisecond)
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("first record printed %d lines, want 1: %q", got, buf.String())
	}
	for i := 0; i < 10; i++ {
		clk.advance(printEvery / 20)
		mon.record(rec, time.Millisecond)
	}
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Errorf("throttled records printed %d lines, want 1", got)
	}
	clk.advance(printEvery)
	mon.record(rec, time.Millisecond)
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("after the window %d lines, want 2:\n%s", got, buf.String())
	}
}

// TestProgressNoDivisionHazards is the regression test for the zero
// guards: zero elapsed time, zero planned runs and an empty tally must
// never render Inf, NaN or a panic.
func TestProgressNoDivisionHazards(t *testing.T) {
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 10, 5)
	var buf strings.Builder
	mon := NewMonitor(nil)
	clk := &fakeClock{t: time.Unix(5000, 0)}
	mon.SetClock(clk.now)
	mon.begin(p, &buf, nil)
	// Elapsed is exactly zero here: the old code divided done/elapsed.
	mon.record(fi.Record{Outcome: fi.OutcomeCrash}, 0)
	out := buf.String()
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Errorf("progress line leaks Inf/NaN: %q", out)
	}
	if !strings.Contains(out, "ETA ?") {
		t.Errorf("zero-rate line should render an unknown ETA: %q", out)
	}

	// A degenerate zero-run plan must render 0%% rather than dividing by
	// plan.Runs.
	s := &StatusJSON{ID: "x", Benchmark: "b", PlannedRuns: 0, ETASeconds: -1}
	line := s.progressLine()
	if strings.Contains(line, "Inf") || strings.Contains(line, "NaN") {
		t.Errorf("zero-plan line leaks Inf/NaN: %q", line)
	}

	// The final summary with zero elapsed time has the same hazard.
	res := &Result{Plan: p, Counts: map[fi.Outcome]int{}, Executed: 1}
	mon.finish(res)
	if out := buf.String(); strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Errorf("summary leaks Inf/NaN: %q", out)
	}
	if !strings.Contains(buf.String(), "executed") {
		t.Errorf("final summary missing: %q", buf.String())
	}
}

// TestMonitorServesCampaignStatus is the acceptance flow: a campaign run
// with a Monitor bound to a registry serves /metrics and a /campaign JSON
// view whose outcome tallies match the final Result exactly.
func TestMonitorServesCampaignStatus(t *testing.T) {
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 120, 30)

	reg := obs.NewRegistry()
	mon := NewMonitor(reg)
	if _, err := mon.Status(); err == nil {
		t.Fatal("Status before any campaign must error")
	}
	srv, err := obs.NewServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.HandleJSON("/campaign", func() (any, error) { return mon.Status() })
	srv.Start()

	logPath := filepath.Join(t.TempDir(), "c.jsonl")
	// Interrupt after 50 runs, then resume with the same monitor: replay
	// must not double-count.
	if _, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logPath, Budget: 50, Monitor: mon}); err != nil {
		t.Fatal(err)
	}
	res, err := Resume(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logPath, Workers: 4, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}

	body := httpGet(t, "http://"+srv.Addr()+"/campaign")
	var st StatusJSON
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/campaign JSON: %v\n%s", err, body)
	}
	if st.ID != p.ID || st.Done != p.Runs || st.Replayed != 50 || st.Executed != 70 {
		t.Errorf("status header: %+v", st)
	}
	for _, o := range st.Outcomes {
		var oc fi.Outcome
		for k, c := range res.Counts {
			if k.String() == o.Outcome {
				oc, _ = k, c
			}
		}
		if int(o.Count) != res.Counts[oc] {
			t.Errorf("outcome %s: /campaign says %d, Result says %d", o.Outcome, o.Count, res.Counts[oc])
		}
	}
	if st.ShardsComplete != p.NumShards() {
		t.Errorf("shards complete = %d, want %d", st.ShardsComplete, p.NumShards())
	}

	// /metrics agrees with the same registry.
	metrics := httpGet(t, "http://"+srv.Addr()+"/metrics")
	if !strings.Contains(metrics, "epvf_campaign_runs_total") ||
		!strings.Contains(metrics, "epvf_campaign_run_seconds_count") {
		t.Errorf("/metrics missing campaign series:\n%s", metrics)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("epvf_campaign_runs_total", "id", p.ID); got != p.Runs {
		t.Errorf("registry run tally = %d, want %d", got, p.Runs)
	}
	if got := snap.Counter("epvf_campaign_runs_total", "id", p.ID, "outcome", "crash"); got != int64(res.Counts[fi.OutcomeCrash]) {
		t.Errorf("registry crash tally = %d, want %d", got, res.Counts[fi.OutcomeCrash])
	}
	if n := reg.Histogram("epvf_campaign_run_seconds", nil, "id", p.ID).Count(); n != 70 {
		t.Errorf("run-latency histogram has %d samples, want 70 (executed this invocation)", n)
	}
	if reg.Histogram("epvf_campaign_checkpoint_sync_seconds", nil, "id", p.ID).Count() == 0 {
		t.Error("checkpoint fsync histogram never observed")
	}
}

// TestMonitorStatusMatchesLogStatus checks the two producers of the
// shared schema agree on a finished campaign.
func TestMonitorStatusMatchesLogStatus(t *testing.T) {
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 60, 30)
	logPath := filepath.Join(t.TempDir(), "c.jsonl")
	mon := NewMonitor(nil)
	if _, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{LogPath: logPath, Monitor: mon}); err != nil {
		t.Fatal(err)
	}
	live, err := mon.Status()
	if err != nil {
		t.Fatal(err)
	}
	st, err := ReadLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cold := st.JSON()
	if live.ID != cold.ID || live.Done != cold.Done || live.ShardsComplete != cold.ShardsComplete {
		t.Errorf("live %+v vs log %+v", live, cold)
	}
	for i := range live.Outcomes {
		if live.Outcomes[i] != cold.Outcomes[i] {
			t.Errorf("outcome %d: live %+v vs log %+v", i, live.Outcomes[i], cold.Outcomes[i])
		}
	}
}

// TestMonitorAdaptiveStopTalliesMatchPrefix: after an early stop, the
// monitor's series must be synced to the effective (prefix) result, not
// the raw executed tally.
func TestMonitorAdaptiveStopTalliesMatchPrefix(t *testing.T) {
	g := golden(t, kernelSrc)
	p := testPlan(t, g, 2400, 100)
	reg := obs.NewRegistry()
	mon := NewMonitor(reg)
	res, err := Run(context.Background(), g.Trace.Module, g, p, RunOptions{Workers: 8, Epsilon: 0.05, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Skip("kernel did not converge; sync check not applicable")
	}
	snap := reg.Snapshot()
	for _, o := range fi.FailureOutcomes {
		got := snap.Counter("epvf_campaign_runs_total", "id", p.ID, "outcome", o.String())
		if got != int64(res.Counts[o]) {
			t.Errorf("outcome %s: registry %d, result %d", o, got, res.Counts[o])
		}
	}
	if snap.Gauge("epvf_campaign_stopped", "id", p.ID) != 1 {
		t.Error("stopped gauge not set")
	}
	if int64(snap.Gauge("epvf_campaign_runs_saved", "id", p.ID)) != res.Saved {
		t.Error("saved gauge does not match result")
	}
	st, err := mon.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Stopped || st.Saved != res.Saved || st.Reason != res.Reason {
		t.Errorf("status stop fields: %+v", st)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestMonitorCachedSeriesMatchLookups reuses one monitor for two plans,
// rerunning one of them, and checks that the series record updates
// through its cached handles expose exactly the counts and buckets that
// looking each series up per run gives.
func TestMonitorCachedSeriesMatchLookups(t *testing.T) {
	g := golden(t, kernelSrc)
	a, b := testPlan(t, g, 100, 50), testPlan(t, g, 200, 50)
	if a.ID == b.ID {
		t.Fatal("test plans share an ID")
	}
	cached, looked := obs.NewRegistry(), obs.NewRegistry()
	mon, ref := NewMonitor(cached), NewMonitor(looked)
	// lookupRecord is record with every series looked up per run.
	lookupRecord := func(id string, rec fi.Record, dur time.Duration) {
		outcome := rec.Outcome.String()
		looked.Counter("epvf_campaign_runs_total", "id", id, "outcome", outcome).Inc()
		looked.Counter("epvf_campaign_runs_executed_total", "id", id).Inc()
		looked.Histogram("epvf_campaign_run_seconds", nil, "id", id).Observe(dur.Seconds())
		looked.Histogram("epvf_injection_latency_seconds", obs.LatencyBuckets,
			"id", id, "stage", "campaign", "outcome", outcome).Observe(dur.Seconds())
	}
	for k, p := range []*Plan{a, b, b, a} {
		replayed := map[fi.Outcome]int{fi.OutcomeSDC: k}
		mon.begin(p, nil, replayed)
		ref.begin(p, nil, replayed)
		for i := range 40 + 7*k {
			rec := fi.Record{Outcome: fi.FailureOutcomes[(i*i+k)%len(fi.FailureOutcomes)]}
			dur := time.Duration(i*i*(k+1)) * time.Microsecond
			mon.record(rec, dur)
			lookupRecord(p.ID, rec, dur)
		}
	}
	var got, want strings.Builder
	if err := cached.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := looked.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("cached series:\n%s\nper-run lookups:\n%s", got.String(), want.String())
	}
	if !strings.Contains(got.String(), `epvf_injection_latency_seconds_bucket{id="`+b.ID) {
		t.Fatalf("no latency buckets for plan %s:\n%s", b.ID, got.String())
	}
}
