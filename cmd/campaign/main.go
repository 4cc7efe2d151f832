// Command campaign orchestrates durable, resumable fault-injection
// campaigns over the built-in benchmarks (or a MiniC / textual-IR source
// file) via internal/campaign, locally or distributed via internal/dist.
//
// Usage:
//
//	campaign plan   -bench mm -runs 3000 [-seed N] [-shard-size K]
//	campaign run    -bench mm -runs 3000 -log mm.jsonl [-epsilon 0.01] [-workers W] [-shards 0,2]
//	campaign resume -bench mm -runs 3000 -log mm.jsonl
//	campaign status -log mm.jsonl [-json]
//	campaign status -addr host:port [-watch] [-json]
//	campaign merge  -out merged.jsonl shard-a.jsonl shard-b.jsonl
//	campaign serve  -bench mm -runs 3000 -log merged.jsonl -addr :8766 [-lease-ttl 30s]
//	campaign work   -bench mm -coordinator http://host:8766 [-workers W]
//	campaign attr   -log mm.jsonl [-bench mm] [-top 20] [-json] [-html attr.html]
//	campaign attr   -server host:port -plan <id> [-top 20] [-json]
//	campaign trace  -log mm.jsonl [-html trace.html]
//
// `run` is restartable: interrupting it (ctrl-C included — SIGINT
// checkpoints the log and exits cleanly) and re-invoking `run` (or
// `resume`) continues from the log and converges on results identical to
// an uninterrupted campaign. `-epsilon` enables adaptive early stopping
// once the crash and SDC rate 95% CIs are within ±ε. `-shards` restricts
// one invocation to a shard subset so several processes (or machines) can
// split a plan; `merge` combines their logs.
//
// `serve` runs the distributed coordinator: it owns the shard plan and a
// TTL lease table, requeues shards whose workers crash, dedupes
// at-least-once redelivery by shard content hash, and exits once the
// merged log — bit-identical to a single-process `run` — is complete.
// Everything serves on one `-addr` listener: the /v1/* worker protocol
// plus /metrics, /healthz (fleet section), /fleet and /attr.
// `work` executes shards for a coordinator; any number of workers may
// join, leave, or crash mid-shard. SIGINT on a worker drains: the
// in-flight shard is finished and delivered before exit.
//
// Attribution: `run`, `resume`, `serve` and `work` feed a
// prediction-vs-ground-truth ledger by default (disable with -attr=false)
// joining each injection's observed outcome with the ePVF model's per-bit
// prediction. `campaign attr` renders it from a finished log — ranked
// mispredicted instructions, Figure-7-style validation tables, JSON, or a
// self-contained HTML heatmap report via -html. With -bench/-src the
// ledger is recomputed exactly from the log's records; without a module
// the snapshot cached in the log is used.
//
// `-obs-addr host:port` serves live introspection while `run`, `resume`
// and `work` execute: /metrics (Prometheus text), /debug/pprof/*,
// /debug/vars, /healthz, /campaign (JSON status, the same schema as
// `campaign status -json`) and /attr (attribution drill-down: ?func=,
// ?instr=, ?format=text) — plus the live telemetry surface: /ts
// (bounded in-process time-series), /events (SSE stream of metric
// deltas, campaign progress, span completions and alert transitions),
// /alerts (declarative alert rules: stall, worker loss, SDC-rate spike
// vs the ePVF prediction, cache collapse, injection p99) and /dashboard
// (a self-contained live HTML page). `campaign serve` carries the same
// surface on its one -addr listener. While any alert fires, /healthz
// degrades and — with -cache-dir — a CPU+heap pprof bundle is captured
// into the content-addressed store under kind obs-profile-v1.
// `campaign status -addr host:port -watch` follows the SSE stream and
// redraws a terminal status view until the campaign ends.
//
// `-server host:port` on `run`/`resume` connects to an `epvf serve`
// analysis daemon: a plan whose campaign already completed anywhere is
// fetched from the daemon's content-addressed cache and replayed
// without injecting, and a freshly completed log (plus its attribution
// snapshot) is published back under the plan ID. `campaign attr
// -server -plan <id>` renders a daemon-cached snapshot with no local
// log at all.
//
// Tracing: every subcommand records correlated spans under the plan's
// deterministic trace ID — the engine's shard spans, the coordinator's
// merge spans, worker shard subtrees (shipped with results), and the
// analysis daemon's handling spans all share one trace. Spans persist
// in the campaign log at checkpoints; `campaign trace -log` renders
// them as a text waterfall and `-html` as a self-contained timeline.
// `-trace-out spans.jsonl` additionally streams every span as JSONL. A
// bounded flight recorder is always on: /debug/flight on any -obs-addr
// server dumps the recent spans and per-shard slowest/crash-class
// injection exemplars, and an abnormal exit dumps them to stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/attr"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/dashboard"
	"repro/internal/dist"
	"repro/internal/epvf"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/report"
	"repro/internal/serve"
)

func main() {
	// The flight recorder is always on — when a campaign dies with an
	// error, its last spans and injection exemplars go to stderr so the
	// failure explains its own recent past.
	obs.SetDefaultFlight(obs.NewFlight(0, 0))
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		obs.DumpDefaultFlight(os.Stderr)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: campaign <plan|run|resume|status|merge|serve|work|attr|trace> [flags]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "plan", "run", "resume":
		return runCampaign(cmd, rest, out)
	case "status":
		return runStatus(rest, out)
	case "merge":
		return runMerge(rest, out)
	case "serve":
		return runServe(rest, out)
	case "work":
		return runWork(rest, out)
	case "attr":
		return runAttr(rest, out)
	case "trace":
		return runTrace(rest, out)
	default:
		return fmt.Errorf("unknown subcommand %q (want plan, run, resume, status, merge, serve, work, attr or trace)", cmd)
	}
}

// interruptContext returns a context cancelled by SIGINT/SIGTERM, so every
// subcommand drains to a durable, resumable state instead of dying
// mid-shard.
func interruptContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// startObs brings up the introspection server — register adds extra
// routes before it serves — and returns a graceful closer: in-flight
// /metrics scrapes finish before the process exits.
func startObs(addr string, reg *obs.Registry, out io.Writer, register func(*obs.Server)) (func(), error) {
	srv, err := obs.NewServer(addr, reg)
	if err != nil {
		return nil, err
	}
	if register != nil {
		register(srv)
	}
	srv.Start()
	fmt.Fprintf(out, "observability: serving http://%s/{metrics,campaign,debug/pprof}\n", srv.Addr())
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	return stop, nil
}

// runCampaign handles the module-bearing subcommands: plan, run, resume.
func runCampaign(cmd string, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("campaign "+cmd, flag.ContinueOnError)
	benchName := fs.String("bench", "", "built-in benchmark name")
	srcPath := fs.String("src", "", "path to a MiniC source file (or .ll textual IR) instead")
	scale := fs.Int("scale", 1, "benchmark input scale")
	runs := fs.Int("runs", 3000, "total planned injections")
	seed := fs.Int64("seed", 2016, "campaign seed")
	jitterPages := fs.Uint64("jitter", 64, "ASLR jitter window in pages (0 = deterministic layout)")
	shardSize := fs.Int("shard-size", campaign.DefaultShardSize, "runs per shard (checkpoint granularity)")
	faultBits := fs.Int("fault-bits", 1, "bits flipped per injection")
	logPath := fs.String("log", "", "JSONL result log (required for run/resume)")
	workers := fs.Int("workers", runtime.NumCPU(), "injection worker goroutines")
	epsilon := fs.Float64("epsilon", 0, "adaptive stop once crash & SDC ±95% CI <= epsilon (0 = fixed count)")
	minRuns := fs.Int64("min-runs", 0, "floor below which adaptive stopping never triggers")
	budget := fs.Int64("budget", 0, "max new runs this invocation (0 = unlimited)")
	shardsFlag := fs.String("shards", "", "comma-separated shard subset to execute (default: all)")
	quiet := fs.Bool("q", false, "suppress progress output")
	obsAddr := fs.String("obs-addr", "", "serve /metrics, /debug/pprof, /campaign and the live /dashboard on this address while running")
	cacheDir := fs.String("cache-dir", "", "with -obs-addr: content-addressed store directory; alert firings capture pprof bundles into it (kind obs-profile-v1)")
	stallAfter := fs.Duration("stall-after", 0, "with -obs-addr: campaign-stall alert window (0 = built-in default)")
	attrOn := fs.Bool("attr", true, "feed the prediction-vs-ground-truth attribution ledger (see `campaign attr`)")
	serverURL := fs.String("server", "", "analysis daemon address (see `epvf serve`); completed logs are fetched from and published to its content-addressed cache by plan ID")
	traceOut := fs.String("trace-out", "", "additionally stream every trace span to this JSONL file (spans always land in the campaign log)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := bench.Load(*benchName, *srcPath, *scale)
	if err != nil {
		return err
	}
	golden, err := epvf.Profile(m, interp.Config{})
	if err != nil {
		return fmt.Errorf("golden run: %w", err)
	}
	label := *benchName
	if label == "" {
		label = m.Name
	}
	plan, err := campaign.NewPlan(m, golden, campaign.PlanConfig{
		Benchmark: label,
		Runs:      *runs,
		ShardSize: *shardSize,
		FI: fi.Config{
			Seed:         *seed,
			JitterWindow: *jitterPages * mem.PageSize,
			FaultBits:    *faultBits,
		},
	})
	if err != nil {
		return err
	}

	if cmd == "plan" {
		t := report.NewTable(fmt.Sprintf("Campaign plan %s [%s]", plan.ID, plan.Benchmark), "Field", "Value")
		t.AddRow("runs", plan.Runs)
		t.AddRow("shards", fmt.Sprintf("%d x %d", plan.NumShards(), plan.ShardSize))
		t.AddRow("seed", plan.Seed)
		t.AddRow("jitter window", plan.JitterWindow)
		t.AddRow("trace events", plan.TraceEvents)
		t.AddRow("injectable bits", plan.TotalBits)
		fmt.Fprint(out, t.String())
		return nil
	}

	if *logPath == "" {
		return fmt.Errorf("%s requires -log <path>", cmd)
	}
	tracer, stopTracing, err := setupTracing("campaign", *traceOut)
	if err != nil {
		return err
	}
	defer stopTracing()
	// With a daemon, a plan that already completed anywhere is fetched
	// instead of re-executed: the log lands locally and Run replays it
	// without injecting a single fault. The client propagates the plan's
	// deterministic trace root and collects the daemon's handling spans
	// into pub, so they can be stitched into the campaign log afterwards.
	var daemon *serve.Client
	var pub *obs.Tracer
	if *serverURL != "" {
		daemon = serve.NewClient(*serverURL)
		pub = obs.NewTracer(nil)
		daemon.Trace = campaign.TraceContext(plan.ID)
		daemon.Tracer = pub
		if _, err := os.Stat(*logPath); os.IsNotExist(err) {
			data, ok, gerr := daemon.GetBlob(serve.KindCampaign, plan.ID)
			if gerr != nil {
				return gerr
			}
			if ok {
				if werr := os.WriteFile(*logPath, data, 0o644); werr != nil {
					return werr
				}
				fmt.Fprintf(out, "campaign: fetched cached log for plan %s from %s\n", plan.ID, *serverURL)
			}
		}
	}
	var shards []int
	if *shardsFlag != "" {
		for _, s := range strings.Split(*shardsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("bad -shards entry %q: %w", s, err)
			}
			shards = append(shards, n)
		}
	}
	opts := campaign.RunOptions{
		LogPath: *logPath,
		Workers: *workers,
		Epsilon: *epsilon,
		MinRuns: *minRuns,
		Budget:  *budget,
		Shards:  shards,
		Tracer:  tracer,
	}
	if !*quiet {
		opts.Progress = out
	}
	var meta *attr.Meta
	var predictedSDC float64
	if *attrOn {
		opts.Ledger, meta, predictedSDC = buildLedger(golden)
	}
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		obs.SetDefault(reg)
		defer obs.SetDefault(nil)
		mon := campaign.NewMonitor(reg)
		opts.Monitor = mon
		ledger := opts.Ledger
		profiles, err := openProfileStore(*cacheDir, reg)
		if err != nil {
			return err
		}
		var mounted *dashboard.Mounted
		stop, err := startObs(*obsAddr, reg, out, func(srv *obs.Server) {
			srv.HandleJSON("/campaign", func() (any, error) { return mon.Status() })
			srv.Handle("/attr", attr.Handler(ledger.Snapshot, meta))
			mounted = dashboard.Mount(srv, dashboard.Config{
				Registry:     reg,
				Title:        fmt.Sprintf("campaign %s [%s]", plan.ID, label),
				StallWindow:  *stallAfter,
				PredictedSDC: predictedSDC,
				Profiles:     profiles,
			})
		})
		if err != nil {
			return err
		}
		defer stop()
		defer mounted.Stop()
		mon.SetPublisher(mounted.Publish)
		mon.SetTelemetry(mounted.Collector.Summarize, mounted.Alerts.Summarize)
	}
	ctx, cancel := interruptContext()
	defer cancel()
	var res *campaign.Result
	if cmd == "resume" {
		res, err = campaign.Resume(ctx, m, golden, plan, opts)
	} else {
		res, err = campaign.Run(ctx, m, golden, plan, opts)
	}
	if err != nil {
		return err
	}
	if *quiet {
		fmt.Fprint(out, res.Render())
	}
	if res.Interrupted {
		fmt.Fprintf(out, "campaign interrupted: %d/%d runs checkpointed to %s — re-invoke `campaign resume` to continue\n",
			res.Replayed+res.Executed, plan.Runs, *logPath)
		return nil
	}
	if !res.Complete {
		fmt.Fprintf(out, "campaign incomplete: %d/%d runs logged — re-invoke `campaign resume` to continue\n",
			res.Replayed+res.Executed, plan.Runs)
	}
	if daemon != nil && res.Complete {
		if err := publishCampaign(daemon, plan.ID, *logPath, opts.Ledger, out); err != nil {
			// Publication is best-effort: the local log is already
			// durable, so a flaky daemon must not fail the campaign.
			fmt.Fprintf(out, "campaign: publish to %s failed: %v\n", *serverURL, err)
		}
	}
	// Stitch the daemon's handling spans (fetch and publish hops) into
	// the local trace and the campaign log — `campaign trace` then shows
	// the daemon's work alongside the engine's, in one tree. Readers
	// dedup by span ID, so overlapping appends are harmless.
	if pub != nil {
		if spans := pub.Spans(); len(spans) > 0 {
			tracer.Ingest(spans...)
			if err := campaign.AppendSpans(*logPath, spans); err != nil {
				fmt.Fprintf(out, "campaign: persisting daemon spans: %v\n", err)
			}
		}
	}
	return nil
}

// publishCampaign uploads a completed log (and the attribution
// snapshot, when a ledger ran) to the daemon's cache under the plan ID,
// so any process holding the same plan gets the results without
// injecting.
func publishCampaign(daemon *serve.Client, planID, logPath string, ledger *attr.Ledger, out io.Writer) error {
	data, err := os.ReadFile(logPath)
	if err != nil {
		return err
	}
	if err := daemon.PutBlob(serve.KindCampaign, planID, data); err != nil {
		return err
	}
	if ledger != nil {
		enc, err := json.Marshal(ledger.Snapshot())
		if err != nil {
			return err
		}
		if err := daemon.PutBlob(serve.KindAttr, planID, enc); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "campaign: published log for plan %s\n", planID)
	return nil
}

func runStatus(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("campaign status", flag.ContinueOnError)
	logPath := fs.String("log", "", "JSONL result log")
	asJSON := fs.Bool("json", false, "emit the status as JSON (same schema as the /campaign HTTP view)")
	addrFlag := fs.String("addr", "", "live campaign server (the -obs-addr of a running run/resume); reads /campaign over HTTP instead of a log")
	watch := fs.Bool("watch", false, "with -addr: follow the /events SSE stream and redraw until the campaign ends (falls back to one-shot when the stream is absent)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addrFlag != "" {
		return watchStatus(out, *addrFlag, *watch, *asJSON)
	}
	if *watch {
		return fmt.Errorf("status -watch requires -addr <host:port> (a running -obs-addr server)")
	}
	path := *logPath
	if path == "" && fs.NArg() == 1 {
		path = fs.Arg(0)
	}
	if path == "" {
		return fmt.Errorf("status requires -log <path> or -addr <host:port>")
	}
	st, err := campaign.ReadStatus(path)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(st.JSON())
	}
	fmt.Fprint(out, st.Render())
	return nil
}

func runMerge(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("campaign merge", flag.ContinueOnError)
	outPath := fs.String("out", "", "merged JSONL log to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("merge requires -out <path>")
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("merge requires at least one input log")
	}
	st, err := campaign.MergeLogs(*outPath, fs.Args())
	if err != nil {
		return err
	}
	fmt.Fprint(out, st.Render())
	return nil
}

// runServe runs the distributed coordinator: it owns the shard plan and
// durable merged log, hands TTL leases to workers, and exits with the
// merged result once every shard has been delivered.
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("campaign serve", flag.ContinueOnError)
	benchName := fs.String("bench", "", "built-in benchmark name")
	srcPath := fs.String("src", "", "path to a MiniC source file (or .ll textual IR) instead")
	scale := fs.Int("scale", 1, "benchmark input scale")
	runs := fs.Int("runs", 3000, "total planned injections")
	seed := fs.Int64("seed", 2016, "campaign seed")
	jitterPages := fs.Uint64("jitter", 64, "ASLR jitter window in pages (0 = deterministic layout)")
	shardSize := fs.Int("shard-size", campaign.DefaultShardSize, "runs per shard (lease and checkpoint granularity)")
	faultBits := fs.Int("fault-bits", 1, "bits flipped per injection")
	logPath := fs.String("log", "", "durable merged JSONL log (required; restart resumes from it)")
	addr := fs.String("addr", ":8766", "listen address (coordinator /v1/*, /metrics, /healthz, /fleet, /attr, /dashboard — one server)")
	leaseTTL := fs.Duration("lease-ttl", dist.DefaultLeaseTTL, "shard lease TTL (crashed workers' shards requeue after this)")
	cacheDir := fs.String("cache-dir", "", "content-addressed store directory; alert firings capture pprof bundles into it (kind obs-profile-v1)")
	stallAfter := fs.Duration("stall-after", 0, "coordinator-stall and worker-loss alert window (0 = built-in defaults)")
	quiet := fs.Bool("q", false, "suppress progress output")
	attrOn := fs.Bool("attr", true, "aggregate the attribution ledger across the fleet (see `campaign attr`)")
	traceOut := fs.String("trace-out", "", "additionally stream every trace span to this JSONL file (spans always land in the merged log)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" {
		return fmt.Errorf("serve requires -log <path> (the durable merged log)")
	}

	m, err := bench.Load(*benchName, *srcPath, *scale)
	if err != nil {
		return err
	}
	golden, err := epvf.Profile(m, interp.Config{})
	if err != nil {
		return fmt.Errorf("golden run: %w", err)
	}
	label := *benchName
	if label == "" {
		label = m.Name
	}
	plan, err := campaign.NewPlan(m, golden, campaign.PlanConfig{
		Benchmark: label,
		Runs:      *runs,
		ShardSize: *shardSize,
		FI: fi.Config{
			Seed:         *seed,
			JitterWindow: *jitterPages * mem.PageSize,
			FaultBits:    *faultBits,
		},
	})
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	var ledger *attr.Ledger
	var meta *attr.Meta
	var predictedSDC float64
	if *attrOn {
		ledger, meta, predictedSDC = buildLedger(golden)
	}
	tracer, stopTracing, err := setupTracing("coordinator", *traceOut)
	if err != nil {
		return err
	}
	defer stopTracing()
	// One server carries everything: the coordinator's /v1/* worker
	// protocol, /metrics, /healthz (with fleet and degradation sections),
	// /fleet, /attr and the live /dashboard + /events telemetry surface —
	// there is no separate -obs-addr for `serve`. The dashboard mounts
	// before the coordinator exists so the coordinator's fleet publisher
	// can feed the SSE hub from its first lease onward.
	srv, err := obs.NewServer(*addr, reg)
	if err != nil {
		return err
	}
	profiles, err := openProfileStore(*cacheDir, reg)
	if err != nil {
		srv.Close()
		return err
	}
	mounted := dashboard.Mount(srv, dashboard.Config{
		Registry:     reg,
		Title:        fmt.Sprintf("coordinator %s [%s]", plan.ID, label),
		StallWindow:  *stallAfter,
		PredictedSDC: predictedSDC,
		Profiles:     profiles,
	})
	defer mounted.Stop()
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Plan:     plan,
		LogPath:  *logPath,
		LeaseTTL: *leaseTTL,
		Registry: reg,
		Ledger:   ledger,
		Tracer:   tracer,
		Publish:  mounted.Publish,
	})
	if err != nil {
		srv.Close()
		return err
	}
	srv.Handle("/v1/", coord)
	srv.HandleJSON("/fleet", func() (any, error) { return coord.Status(), nil })
	srv.Handle("/attr", attr.Handler(ledger.Snapshot, meta))
	srv.AddHealth("fleet", func() any { return coord.Status() })
	srv.Start()
	if !*quiet {
		st := coord.Status()
		fmt.Fprintf(out, "coordinator: serving plan %s [%s] on %s (%d shards, %d already merged, lease TTL %s)\n",
			plan.ID, plan.Benchmark, srv.Addr(), st.NumShards, st.ShardsDone, *leaseTTL)
		fmt.Fprintf(out, "coordinator: join workers with: campaign work -coordinator http://%s ...\n", srv.Addr())
	}

	ctx, cancel := interruptContext()
	defer cancel()
	waitErr := coord.Wait(ctx)
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		coord.Shutdown(sctx)
		return err
	}
	if err := coord.Shutdown(sctx); err != nil {
		return err
	}
	if waitErr != nil {
		st := coord.Status()
		fmt.Fprintf(out, "coordinator interrupted: %d/%d shards merged to %s — re-invoke `campaign serve` to continue\n",
			st.ShardsDone, st.NumShards, *logPath)
		return nil
	}
	res, err := coord.Result()
	if err != nil {
		return err
	}
	st := coord.Status()
	if !*quiet {
		for _, ws := range st.Workers {
			fmt.Fprintf(out, "coordinator: worker %s delivered %d shards\n", ws.Name, ws.ShardsDone)
		}
		if st.ShardsRequeued > 0 || st.DupDeliveries > 0 {
			fmt.Fprintf(out, "coordinator: %d leases requeued, %d duplicate deliveries deduped\n",
				st.ShardsRequeued, st.DupDeliveries)
		}
	}
	fmt.Fprint(out, res.Render())
	return nil
}

// runWork runs one worker process against a coordinator. SIGINT drains:
// the in-flight shard finishes and delivers before exit.
func runWork(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("campaign work", flag.ContinueOnError)
	coordURL := fs.String("coordinator", "", "coordinator base URL, e.g. http://host:8766 (required)")
	benchName := fs.String("bench", "", "built-in benchmark name")
	srcPath := fs.String("src", "", "path to a MiniC source file (or .ll textual IR) instead")
	scale := fs.Int("scale", 1, "benchmark input scale")
	workers := fs.Int("workers", runtime.NumCPU(), "injection worker goroutines per shard")
	name := fs.String("name", "", "worker name in leases and fleet status (default: host-pid)")
	obsAddr := fs.String("obs-addr", "", "serve /metrics and /debug/pprof on this address while running")
	quiet := fs.Bool("q", false, "suppress progress output")
	attrOn := fs.Bool("attr", true, "send per-shard attribution-ledger hashes with deliveries (cross-checks classifier skew)")
	traceOut := fs.String("trace-out", "", "additionally stream every trace span to this JSONL file (shard subtrees always ship to the coordinator)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordURL == "" {
		return fmt.Errorf("work requires -coordinator <url>")
	}

	m, err := bench.Load(*benchName, *srcPath, *scale)
	if err != nil {
		return err
	}
	golden, err := epvf.Profile(m, interp.Config{})
	if err != nil {
		return fmt.Errorf("golden run: %w", err)
	}
	procName := *name
	if procName == "" {
		// Mirror dist.NewWorker's default so spans name the same process
		// the fleet status does.
		host, _ := os.Hostname()
		procName = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	tracer, stopTracing, err := setupTracing(procName, *traceOut)
	if err != nil {
		return err
	}
	defer stopTracing()
	cfg := dist.WorkerConfig{
		Coordinator: strings.TrimRight(*coordURL, "/"),
		Name:        procName,
		Module:      m,
		Golden:      golden,
		Workers:     *workers,
		Tracer:      tracer,
	}
	if *attrOn {
		ledger, _, _ := buildLedger(golden)
		cfg.Classifier = ledger.Classifier()
	}
	if !*quiet {
		cfg.Progress = out
	}
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		cfg.Registry = reg
		var mounted *dashboard.Mounted
		stop, err := startObs(*obsAddr, reg, out, func(srv *obs.Server) {
			mounted = dashboard.Mount(srv, dashboard.Config{
				Registry: reg,
				Title:    fmt.Sprintf("worker %s", procName),
			})
		})
		if err != nil {
			return err
		}
		defer stop()
		defer mounted.Stop()
	}
	w, err := dist.NewWorker(cfg)
	if err != nil {
		return err
	}
	ctx, cancel := interruptContext()
	defer cancel()
	return w.Run(ctx)
}

// openProfileStore opens the content-addressed store alert firings
// capture pprof bundles into (kind obs-profile-v1). An empty dir means
// no capture: the dashboard still mounts, alerts still fire, but
// transitions carry no profile key.
func openProfileStore(dir string, reg *obs.Registry) (alert.ProfileSink, error) {
	if dir == "" {
		return nil, nil
	}
	return cache.Open(cache.Config{Dir: dir, Registry: reg})
}

// buildLedger runs the ePVF analysis over the golden trace and returns
// the attribution ledger, the instruction metadata reports join in, and
// the model's predicted SDC rate (the ePVF fraction — what the
// SDC-spike alert compares the measured rate against).
func buildLedger(golden *interp.Result) (*attr.Ledger, *attr.Meta, float64) {
	a := epvf.AnalyzeTrace(golden.Trace, epvf.Config{})
	return attr.NewLedger(attr.NewClassifier(a)), attr.NewMeta(golden.Trace), a.EPVF()
}

// runAttr renders the attribution ledger of a finished (or merged) log:
// text tables, JSON, or a self-contained HTML report. With -bench/-src the
// ledger is recomputed exactly from the log's run records (so merged
// distributed logs render identically to single-process ones); without a
// module it falls back to the snapshot cached in the log.
func runAttr(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("campaign attr", flag.ContinueOnError)
	logPath := fs.String("log", "", "JSONL result log (required)")
	benchName := fs.String("bench", "", "built-in benchmark name (recomputes the ledger from the log's records)")
	srcPath := fs.String("src", "", "path to a MiniC source file (or .ll textual IR) instead")
	scale := fs.Int("scale", 1, "benchmark input scale")
	topN := fs.Int("top", 20, "instructions to list in the misprediction ranking")
	asJSON := fs.Bool("json", false, "emit the full report as JSON")
	htmlPath := fs.String("html", "", "write a self-contained HTML report to this path")
	serverURL := fs.String("server", "", "analysis daemon address (see `epvf serve`); with -plan, render its cached snapshot without a local log")
	planID := fs.String("plan", "", "plan ID to fetch from the daemon when no -log is given")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var snap *attr.Snapshot
	var meta *attr.Meta
	var title string
	switch {
	case *logPath != "":
		d, err := campaign.ReadLogData(*logPath)
		if err != nil {
			return err
		}
		snap = d.Attr
		if *benchName != "" || *srcPath != "" {
			m, err := bench.Load(*benchName, *srcPath, *scale)
			if err != nil {
				return err
			}
			golden, err := epvf.Profile(m, interp.Config{})
			if err != nil {
				return fmt.Errorf("golden run: %w", err)
			}
			if n := golden.Trace.NumEvents(); n != d.Plan.TraceEvents {
				return fmt.Errorf("attr: golden trace has %d events, log plan %s expects %d — wrong module or scale",
					n, d.Plan.ID, d.Plan.TraceEvents)
			}
			ledger, lmeta, _ := buildLedger(golden)
			meta = lmeta
			snap = attr.Collect(ledger.Classifier(), d.SortedRecords())
		}
		if snap == nil {
			return fmt.Errorf("log %s carries no attribution snapshot (campaign ran with -attr=false?); pass -bench/-src to recompute it from the records", *logPath)
		}
		title = fmt.Sprintf("%s plan %s", d.Plan.Benchmark, d.Plan.ID)
		if *serverURL != "" {
			// With both a log and a daemon, publish the snapshot so
			// log-less clients (`attr -server -plan`) can render it.
			enc, err := json.Marshal(snap)
			if err != nil {
				return err
			}
			if err := serve.NewClient(*serverURL).PutBlob(serve.KindAttr, d.Plan.ID, enc); err != nil {
				return err
			}
			fmt.Fprintf(out, "attr: published snapshot for plan %s\n", d.Plan.ID)
		}
	case *serverURL != "" && *planID != "":
		data, ok, err := serve.NewClient(*serverURL).GetBlob(serve.KindAttr, *planID)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("daemon %s has no attribution snapshot for plan %s (run the campaign with -server, or `campaign attr -log ... -server` to publish one)", *serverURL, *planID)
		}
		snap = new(attr.Snapshot)
		if err := json.Unmarshal(data, snap); err != nil {
			return fmt.Errorf("attr: decode daemon snapshot for plan %s: %w", *planID, err)
		}
		title = fmt.Sprintf("plan %s", *planID)
	default:
		return fmt.Errorf("attr requires -log <path>, or -server <addr> with -plan <id>")
	}
	if *htmlPath != "" {
		f, err := os.Create(*htmlPath)
		if err != nil {
			return err
		}
		if err := attr.WriteHTML(f, title, snap, meta); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "attr: wrote %s\n", *htmlPath)
	}
	r := attr.BuildReport(snap, meta)
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Hash    string           `json:"hash"`
			Summary attr.SummaryJSON `json:"summary"`
			Classes []attr.ClassJSON `json:"classes"`
			Funcs   []attr.FuncJSON  `json:"funcs"`
			Instrs  []attr.InstrJSON `json:"instrs"`
		}{snap.Hash(), r.Summary, r.Classes, r.PerFunction(), r.Instrs})
	}
	if *htmlPath == "" {
		fmt.Fprint(out, r.Text(*topN))
	}
	return nil
}
