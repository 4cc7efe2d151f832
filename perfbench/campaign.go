package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/attr"
	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/epvf"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Fixed campaign parameters: what `campaign run -bench lulesh -workers 2`
// wires up, with 1024 planned injections per campaign.
const (
	campaignKernel  = "lulesh"
	campaignWorkers = 2
	campaignRunsN   = 1024
	smallRunsN      = 128
	spotChecks      = 16
	// campaignTail is the campaign tail percentile, taken per campaign
	// (51 of 1024 injections beyond it). The p99 the ten-sample rule would
	// give rests on 10 injections and moved 16-28% between identical runs.
	campaignTail = 0.95
)

// campaignRef pins one campaign's record stream.
type campaignRef struct{ digest, counts string }

// pinnedCampaigns holds the record streams of the default and held-out
// seeds, and of the self-test's small campaigns, keyed by
// "<jitter pages>/<seed>/<runs>".
var pinnedCampaigns = map[string]campaignRef{
	"0/2016/1024":  {"300f33c33e68ef04", "SDC=235 benign=263 crash=526"},
	"0/7/1024":     {"e9118245de4d728a", "SDC=227 benign=263 crash=534"},
	"64/2016/1024": {"af396553ae1cdce3", "SDC=235 benign=261 crash=528"},
	"64/7/1024":    {"ec25281c280b0efa", "SDC=227 benign=262 crash=535"},
	"0/2016/128":   {"1d80faab3e9e000a", "SDC=30 benign=23 crash=75"},
	"64/2016/128":  {"1d80faab3e9e000a", "SDC=30 benign=23 crash=75"},
}

// runBuckets is a 1%-resolution latency layout installed for the
// monitor's per-run histogram, so per-injection percentiles can be read
// back from the counters the campaign already exports.
var runBuckets = func() []float64 {
	var b []float64
	for v := 1e-6; v < 100; v *= 1.01 {
		b = append(b, v)
	}
	return b
}()

// campaignSetup is what a campaign needs before its first injection.
type campaignSetup struct {
	m      *ir.Module
	golden *interp.Result
	plan   *campaign.Plan
	a      *epvf.Analysis
	cls    *attr.Classifier
}

// setupCampaign compiles the kernel, records the golden run, plans the
// campaign and builds the attribution ledger's classifier, as the
// campaign CLI does. With a tracer every step is timed.
func setupCampaign(seed int64, jitterPages uint64, runs int, tr *layerTracer) (*campaignSetup, error) {
	b, _ := bench.Get(campaignKernel)
	src := b.SourceAt(1)
	step := func(name string, fn func()) {
		if tr != nil {
			tr.timeAllocs(name, fn)
		} else {
			fn()
		}
	}
	s := &campaignSetup{}
	var err error
	step("lang.compile", func() { s.m, err = lang.Compile(b.Name, src) })
	if err != nil {
		return nil, err
	}
	step("interp.golden", func() { s.golden, err = interp.Run(s.m, interp.Config{Record: true}) })
	if err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	step("campaign.plan", func() {
		s.plan, err = campaign.NewPlan(s.m, s.golden, campaign.PlanConfig{
			Benchmark: campaignKernel,
			Runs:      runs,
			FI:        fi.Config{Seed: seed, JitterWindow: jitterPages * mem.PageSize},
		})
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		s.a = modelLayers(tr, s.golden)
	} else {
		s.a = epvf.AnalyzeTrace(s.golden.Trace, epvf.Config{})
	}
	s.cls = attr.NewClassifier(s.a)
	return s, nil
}

// runCampaign drives campaign.Run with a durable log, snapshots on, the
// VM engine and a fixed worker pool, one whole campaign after another
// until the time is up. jitterPages > 0 makes Run refuse snapshots.
func runCampaign(c *runConfig, jitterPages uint64) (*result, error) {
	res := newResult()
	var tr *layerTracer
	if c.trace {
		tr = newLayerTracer()
		res.tracer = tr
	}
	runs := campaignRunsN
	if c.small {
		runs = smallRunsN
	}
	var s *campaignSetup
	setup, err := measureSetup(func() error {
		var err error
		s, err = setupCampaign(c.seed, jitterPages, runs, tr)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup
	key := fmt.Sprintf("%d/%d/%d", jitterPages, c.seed, runs)
	ref, pinned := pinnedCampaigns[key]

	var p50s, tails []float64 // per campaign
	var tp throughput
	var tracedWall time.Duration
	var meter allocMeter
	var reps int
	var records []fi.Record
	var counts map[fi.Outcome]int
	var lc layerCampaign
	rss := startRSSPeak()
	start := time.Now()
	for reps == 0 || (!c.small && time.Since(start) < c.dur) {
		logPath := filepath.Join(c.tmp, fmt.Sprintf("campaign-%d.jsonl", reps))
		reg := obs.NewRegistry()
		reg.Histogram("epvf_campaign_run_seconds", runBuckets, "id", s.plan.ID)
		mon := campaign.NewMonitor(reg)
		res.attempted += int64(runs)
		meter.begin()
		c0 := cpuNow()
		t0 := time.Now()
		cr, err := campaign.Run(context.Background(), s.m, s.golden, s.plan, campaign.RunOptions{
			LogPath: logPath,
			Workers: campaignWorkers,
			Monitor: mon,
			Ledger:  attr.NewLedger(s.cls),
			Engine:  fi.EngineVM,
		})
		d := time.Since(t0)
		cd := cpuNow() - c0
		meter.end()
		reps++
		if err != nil {
			res.fail(int64(runs), "campaign %d: %v", reps, err)
			continue
		}
		tp.round(int64(runs), cd, d)
		lat := histogramSamples(reg, "epvf_campaign_run_seconds", s.plan.ID).sorted()
		p50s = append(p50s, quantile(lat, 0.5))
		tails = append(tails, quantile(lat, campaignTail))
		got := campaignRef{recordDigest(cr.Records), countsString(cr.Counts)}
		switch {
		case len(cr.Records) != runs || !cr.Complete:
			res.fail(int64(runs), "campaign %d: %d/%d records, complete=%v", reps, len(cr.Records), runs, cr.Complete)
		case records == nil:
			records, counts = cr.Records, cr.Counts
			if pinned && got != ref {
				res.fail(int64(runs), "campaign %s: records %+v, pinned %+v", key, got, ref)
			}
			fmt.Fprintf(c.out, "campaign: plan %s, records %s (%s)\n", s.plan.ID[:12], got.digest, got.counts)
		case got.digest != recordDigest(records):
			res.fail(int64(runs), "campaign %d: record stream %s differs from the first campaign's", reps, got.digest)
		}
		st, err := mon.Status()
		if err != nil {
			return nil, err
		}
		if v := st.Snapshot; jitterPages > 0 && v != nil && snapshotWork(v.Captures, v.Restores, v.ReplayedEvents, v.SkippedEvents, v.Converged, v.DirtyPages) {
			res.fail(int64(runs), "campaign %d: snapshot counts %+v under %d-page jitter, want all 0", reps, *v, jitterPages)
		}
		if tr != nil {
			t1 := time.Now()
			n, err := campaignLayers(tr, s, filepath.Join(c.tmp, fmt.Sprintf("layers-%d.jsonl", reps)), reps == 1)
			tracedWall += time.Since(t1)
			if err != nil {
				return nil, err
			}
			if recordDigest(n.records) != got.digest {
				res.fail(int64(runs), "campaign %d: traced records differ from campaign.Run's", reps)
			}
			checkpoint := reg.Histogram("epvf_campaign_checkpoint_sync_seconds", nil, "id", s.plan.ID).Sum()
			lc.add(res, n, st, checkpoint)
		}
		if err := os.RemoveAll(logPath); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	res.e2e["peak_rss_mb"] = rss.end()
	res.setThroughput(c.out, &tp)
	res.setAllocs(&meter, tp.ops)
	res.e2e["op_p50_ms"] = median(p50s) * 1e3
	res.e2e["op_tail_ms"] = median(tails) * 1e3
	fmt.Fprintf(c.out, "campaign: %d campaigns of %d injections (jitter %d pages, %d workers) in %.2fs\n",
		reps, runs, jitterPages, campaignWorkers, elapsed.Seconds())
	fmt.Fprintf(c.out, "op latency (wall, from the campaign monitor; median over campaigns): p50 %.4f ms, tail p%g %.4f ms (%d samples per campaign, %.0f beyond)\n",
		median(p50s)*1e3, campaignTail*100, median(tails)*1e3, runs, (1-campaignTail)*float64(runs))
	if records != nil {
		checkCampaign(c, res, s, records, counts)
	}
	if tr != nil {
		lc.report(res, s, reps, runs, jitterPages, tp.wall, tracedWall)
	}
	return res, nil
}

// snapshotWork reports whether any snapshot count is non-zero. Under
// jitter Run must refuse snapshots, so every count stays 0.
func snapshotWork(counts ...int64) bool {
	for _, n := range counts {
		if n != 0 {
			return true
		}
	}
	return false
}

// checkCampaign verifies the record stream against independent from-
// scratch walker runs at seeded indices, and the SDC rate against the
// ePVF bound widened by its Wilson interval.
func checkCampaign(c *runConfig, res *result, s *campaignSetup, records []fi.Record, counts map[fi.Outcome]int) {
	fcfg := s.plan.FIConfig()
	fcfg.Engine = fi.EngineWalker
	oracle, err := fi.NewRunner(s.m, s.golden, fcfg)
	if err != nil {
		res.fail(int64(len(records)), "oracle runner: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(c.seed))
	for k := 0; k < spotChecks; k++ {
		i := rng.Int63n(int64(len(records)))
		if got := oracle.RunIndex(i); got != records[i] {
			res.fail(1, "run %d: campaign record %+v, scratch walker %+v", i, records[i], got)
		}
	}
	p := stats.Proportion{Successes: counts[fi.OutcomeSDC], N: len(records)}
	bound := s.a.EPVF()
	if p.Rate() > bound+p.HalfWidth() {
		res.fail(int64(len(records)), "SDC rate %.4f exceeds ePVF %.4f + %.4f", p.Rate(), bound, p.HalfWidth())
	}
	fmt.Fprintf(c.out, "campaign: SDC rate %.4f ± %.4f against ePVF bound %.4f; %d spot checks against the walker\n",
		p.Rate(), p.HalfWidth(), bound, spotChecks)
}

// campaignCounts is one traced campaign's deterministic counts.
type campaignCounts struct {
	events, walkerRuns                               int64
	captures, restores, replayed, skipped, converged int64
	dirty                                            int64
}

// layerRun is what campaignLayers hands back.
type layerRun struct {
	records []fi.Record
	counts  campaignCounts
}

// campaignLayers performs one campaign's layer work through public calls:
// fi.Runner injections and attr.Ledger observations on a two-worker pool,
// and shard appends to a campaign.DurableLog, timing each call. With
// allocPass it afterwards replays the first shard serially to attribute
// allocations to each call.
func campaignLayers(tr *layerTracer, s *campaignSetup, logPath string, allocPass bool) (*layerRun, error) {
	fcfg := s.plan.FIConfig()
	fcfg.Engine = fi.EngineVM
	runner, err := fi.NewRunner(s.m, s.golden, fcfg)
	if err != nil {
		return nil, err
	}
	if _, err := runner.EnableSnapshots(snapshot.Config{}); err != nil {
		return nil, err
	}
	ledger := attr.NewLedger(s.cls)
	dl, _, err := campaign.OpenDurableLog(logPath, s.plan)
	if err != nil {
		return nil, err
	}
	defer os.Remove(logPath)
	defer dl.Close()
	out := &layerRun{records: make([]fi.Record, s.plan.Runs)}
	for si := 0; si < s.plan.NumShards(); si++ {
		lo, hi := s.plan.ShardRange(si)
		idxs := make([]int64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idxs = append(idxs, i)
		}
		idxs = runner.OrderByEvent(idxs)
		work := make(chan int64)
		var wg sync.WaitGroup
		for w := 0; w < campaignWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					t0 := time.Now()
					rec := runner.RunIndex(i)
					t1 := time.Now()
					ledger.Observe(rec)
					t2 := time.Now()
					tr.add("fi.run", t1.Sub(t0))
					tr.add("attr.observe", t2.Sub(t1))
					out.records[i] = rec
				}
			}()
		}
		for _, i := range idxs {
			work <- i
		}
		close(work)
		wg.Wait()
		t0 := time.Now()
		if err := dl.AppendShard(si, runRecs(out.records, lo, hi)); err != nil {
			return nil, err
		}
		tr.add("campaign.log_append", time.Since(t0))
	}
	t0 := time.Now()
	if err := dl.AppendAttr(ledger.Snapshot()); err != nil {
		return nil, err
	}
	tr.add("campaign.log_append", time.Since(t0))

	for _, st := range runner.EngineStats() {
		out.counts.events += st.Events
		if st.Engine == fi.EngineWalker {
			out.counts.walkerRuns += st.Runs
		}
	}
	if v := runner.SnapshotView(); v != nil {
		out.counts.captures, out.counts.restores = v.Captures, v.Restores
		out.counts.replayed, out.counts.skipped = v.ReplayedEvents, v.SkippedEvents
		out.counts.converged, out.counts.dirty = v.Converged, v.DirtyPages
	}
	if allocPass {
		if err := campaignAllocs(tr, s, runner, logPath+".allocs"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// campaignAllocs replays the first shard serially, attributing each
// call's allocations.
func campaignAllocs(tr *layerTracer, s *campaignSetup, runner *fi.Runner, logPath string) error {
	dl, _, err := campaign.OpenDurableLog(logPath, s.plan)
	if err != nil {
		return err
	}
	defer os.Remove(logPath)
	defer dl.Close()
	ledger := attr.NewLedger(s.cls)
	lo, hi := s.plan.ShardRange(0)
	recs := make([]fi.Record, hi)
	for i := lo; i < hi; i++ {
		m0 := readMem()
		recs[i] = runner.RunIndex(i)
		m1 := readMem()
		ledger.Observe(recs[i])
		m2 := readMem()
		tr.addAllocs("fi.run", m1.mallocs-m0.mallocs)
		tr.addAllocs("attr.observe", m2.mallocs-m1.mallocs)
	}
	rr := runRecs(recs, lo, hi)
	m0 := readMem()
	err = dl.AppendShard(0, rr)
	tr.addAllocs("campaign.log_append", readMem().mallocs-m0.mallocs)
	return err
}

func runRecs(recs []fi.Record, lo, hi int64) []campaign.RunRec {
	out := make([]campaign.RunRec, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, campaign.NewRunRec(i, recs[i]))
	}
	return out
}

// layerCampaign accumulates the traced campaigns' per-layer numbers.
type layerCampaign struct {
	first      *campaignCounts
	sum        campaignCounts
	checkpoint float64
}

// add folds in one traced campaign: its layer counts are compared with
// the untraced campaign.Run's (read back through its Monitor) and with
// the first traced campaign's.
func (lc *layerCampaign) add(res *result, n *layerRun, st *campaign.StatusJSON, checkpoint float64) {
	var runEvents int64
	for _, e := range st.Engines {
		runEvents += e.Events
	}
	if runEvents != n.counts.events {
		res.fail(0, "traced campaign executed %d events, campaign.Run %d", n.counts.events, runEvents)
	}
	if v := st.Snapshot; v != nil && (v.Restores != n.counts.restores || v.Converged != n.counts.converged) {
		res.fail(0, "traced campaign snapshot counts %+v, campaign.Run %+v", n.counts, *v)
	}
	if lc.first == nil {
		c := n.counts
		lc.first = &c
	} else if n.counts.events != lc.first.events || n.counts.restores != lc.first.restores {
		res.fail(0, "traced campaign counts %+v, first campaign %+v", n.counts, *lc.first)
	}
	c := &lc.sum
	c.events += n.counts.events
	c.walkerRuns += n.counts.walkerRuns
	c.captures += n.counts.captures
	c.restores += n.counts.restores
	c.replayed += n.counts.replayed
	c.skipped += n.counts.skipped
	c.converged += n.counts.converged
	c.dirty += n.counts.dirty
	lc.checkpoint += checkpoint
}

// report writes the per-campaign layer metrics. The named remainder
// campaign.engine_self_s is campaign.Run's untraced wall time minus the
// traced busy time of the layers on its critical path: the fi and attr
// calls shared across the workers, plus the log appends.
func (lc *layerCampaign) report(res *result, s *campaignSetup, reps, runs int, jitterPages uint64, wall, tracedWall time.Duration) {
	tr := res.tracer
	k := float64(reps)
	res.campaigns = k
	c := lc.sum
	if jitterPages > 0 && snapshotWork(c.captures, c.restores, c.replayed, c.skipped, c.converged, c.dirty) {
		res.fail(0, "traced campaigns took snapshots under %d-page jitter: %+v", jitterPages, c)
	}
	busy := func(name string) float64 { return tr.busy(name).Seconds() / k }
	res.layer["vm.fallbacks"] = float64(c.walkerRuns) / k
	res.layer["trace.events"] = float64(s.golden.DynInstrs)
	res.layer["ddg.ace_nodes"] = float64(s.a.ACENodes)
	res.layer["rangeprop.accesses"] = float64(s.a.CrashResult.AccessesAnalyzed)
	res.layer["rangeprop.crash_bits"] = float64(s.a.CrashResult.CrashBitCount)
	res.layer["fi.busy_s"] = busy("fi.run")
	res.layer["fi.events"] = float64(c.events) / k
	res.layer["fi.events_per_run"] = float64(c.events) / k / float64(runs)
	res.layer["snapshot.captures"] = float64(c.captures) / k
	res.layer["snapshot.restores"] = float64(c.restores) / k
	res.layer["snapshot.replayed_events"] = float64(c.replayed) / k
	res.layer["snapshot.skipped_events"] = float64(c.skipped) / k
	if c.restores > 0 {
		res.layer["snapshot.converged_ratio"] = float64(c.converged) / float64(c.restores)
	}
	res.layer["snapshot.dirty_pages"] = float64(c.dirty) / k
	res.layer["campaign.checkpoint_s"] = lc.checkpoint / k
	res.layer["campaign.engine_self_s"] = wall.Seconds()/k -
		(busy("fi.run")+busy("attr.observe"))/campaignWorkers - busy("campaign.log_append")
	res.layer["obs.trace_overhead_frac"] = (tracedWall - wall).Seconds() / wall.Seconds()
}

// histogramSamples expands a histogram series into one value per
// observation, each at its bucket's geometric midpoint.
func histogramSamples(reg *obs.Registry, name, id string) latencies {
	var out latencies
	for _, s := range reg.Snapshot().Samples {
		if s.Name != name || s.Labels["id"] != id {
			continue
		}
		var prevLe float64
		var prevCount int64
		for _, b := range s.Buckets {
			v := b.Le
			switch {
			case math.IsInf(v, 1):
				v = prevLe
			case prevLe > 0:
				v = math.Sqrt(prevLe * b.Le)
			}
			for j := prevCount; j < b.Count; j++ {
				out = append(out, v)
			}
			if !math.IsInf(b.Le, 1) {
				prevLe = b.Le
			}
			prevCount = b.Count
		}
	}
	return out
}

// recordDigest hashes a record stream in index order.
func recordDigest(recs []fi.Record) string {
	h := sha256.New()
	for i, r := range recs {
		fmt.Fprintf(h, "%d %d %d %d %d %d\n", i, r.Target.Event, r.Target.Bit, r.Target.Mask, r.Outcome, r.Exc)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// countsString renders outcome counts in a fixed order.
func countsString(counts map[fi.Outcome]int) string {
	var parts []string
	for o, n := range counts {
		parts = append(parts, fmt.Sprintf("%s=%d", o, n))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
