// Command epvf runs the ePVF analysis on a built-in benchmark (or a MiniC
// source file) and prints the PVF, ePVF and crash-rate estimates together
// with the ACE-graph statistics of Table V.
//
// Usage:
//
//	epvf -bench mm [-scale 1] [-sample 0.1] [-per-instr 10] [-classes] [-depth N]
//	epvf -src kernel.c
//	epvf diff [-depth N] old.c new.c
//	epvf gate -bench mm -budget 0.24 [-threshold T] [-depth N]
//	epvf serve [-addr host:port] [-cache-dir DIR] [-cache-mem-mb N] [-trace-out spans.jsonl]
//	epvf -bench mm -server host:port [-trace-out spans.jsonl]
//
// `epvf serve` starts the always-on analysis daemon: it accepts module
// IR over HTTP, keys every pipeline stage by content hash, and serves
// cached summaries, campaign logs and attribution snapshots
// (plus /metrics, /healthz and pprof) until SIGINT. `-server` makes the
// analysis a client call against such a daemon, which analyzes at the
// default depth — the printed report is byte-identical to a local run
// without `-depth` (use `-timing=false` to drop the run-dependent timing
// rows when diffing).
//
// `epvf diff` analyzes two versions of a program and reports which
// functions the edit changed and the per-function ePVF movement; `epvf
// gate` is the protect→re-verify resilience regression gate (fails
// non-zero past `-threshold`). Both run one plain analysis per version.
//
// `-obs-addr host:port` serves /metrics and /debug/pprof while the
// analysis runs; `-trace-out spans.jsonl` records per-phase spans (wall
// time, allocations) and prints the phase summary table. Combined with
// `-server`, the request runs under a local root span and the daemon's
// handling spans come back in the reply — one correlated trace across
// both processes. The daemon itself always traces (`epvf serve
// -trace-out` streams its spans as JSONL), and its tracer is a bounded
// flight recorder: /debug/flight shows its recent spans live. An
// abnormal exit dumps the recent spans of the tracer the command ran
// with to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/ddg"
	"repro/internal/epvf"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	// An abnormal exit dumps the recent spans of the tracer the command
	// ran with, so a failed analysis explains its own recent past.
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "serve":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		err = runServe(ctx, args[1:], nil)
	case len(args) > 0 && args[0] == "diff":
		err = runDiff(args[1:])
	case len(args) > 0 && args[0] == "gate":
		err = runGate(args[1:])
	default:
		err = run(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "epvf:", err)
		obs.DumpFlight(os.Stderr, err)
		os.Exit(1)
	}
}

// runServe is the `epvf serve` subcommand: a long-lived analysis daemon
// with a content-addressed result cache, drained gracefully when ctx is
// cancelled (SIGINT/SIGTERM from main). announce, when non-nil, is told
// the bound address (tests use it; main prints instead).
func runServe(ctx context.Context, args []string, announce func(addr string)) (err error) {
	fs := flag.NewFlagSet("epvf serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address (host:port; :0 picks a free port)")
	cacheDir := fs.String("cache-dir", "", "disk cache directory (results survive restarts; empty keeps them in memory only)")
	memMB := fs.Int("cache-mem-mb", 64, "memory-tier cache budget in MiB")
	traceOut := fs.String("trace-out", "", "additionally stream every handling span to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	// The daemon always traces its handling spans (they return to
	// clients, who stitch them into their own traces); -trace-out adds a
	// local JSONL sink.
	var sink *os.File
	if *traceOut != "" {
		f, cerr := os.Create(*traceOut)
		if cerr != nil {
			return cerr
		}
		defer f.Close()
		sink = f
	}
	var tracer *obs.Tracer
	if sink != nil {
		tracer = obs.NewTracer(sink)
	} else {
		tracer = obs.NewTracer(nil)
	}
	tracer.SetProc("epvf-serve")
	obs.SetDefaultTracer(tracer)
	defer obs.SetDefaultTracer(nil)
	defer func() { err = obs.WithFlight(err, tracer) }()
	srv, err := serve.New(serve.Config{
		Addr:          *addr,
		CacheDir:      *cacheDir,
		CacheMemBytes: int64(*memMB) << 20,
		Registry:      reg,
		Tracer:        tracer,
	})
	if err != nil {
		return err
	}
	srv.Start()
	if announce != nil {
		announce(srv.Addr())
	} else {
		fmt.Printf("epvf serve: listening on http://%s\n", srv.Addr())
		if *cacheDir != "" {
			fmt.Printf("epvf serve: disk cache under %s\n", *cacheDir)
		}
		fmt.Printf("epvf serve: analyze with: epvf -bench mm -server %s\n", srv.Addr())
	}
	<-ctx.Done()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(sctx)
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("epvf", flag.ContinueOnError)
	benchName := fs.String("bench", "", "built-in benchmark name (see -list)")
	srcPath := fs.String("src", "", "path to a MiniC source file (or .ll textual IR) to analyze instead")
	scale := fs.Int("scale", 1, "benchmark input scale")
	list := fs.Bool("list", false, "list built-in benchmarks and exit")
	sample := fs.Float64("sample", 0, "also estimate ePVF from this fraction of the ACE graph (e.g. 0.1)")
	perInstr := fs.Int("per-instr", 0, "print the N most SDC-prone static instructions by ePVF")
	perFunc := fs.Bool("per-func", false, "print the per-function vulnerability breakdown")
	classes := fs.Bool("classes", false, "print the bit-class census (crash-predicted / ACE / unACE bits per dynamic definition)")
	printIR := fs.Bool("print-ir", false, "dump the compiled IR before analyzing")
	printSrc := fs.Bool("print-src", false, "print the benchmark's MiniC source and exit (for editing: epvf diff, epvf gate -src)")
	saveTrace := fs.String("save-trace", "", "save the recorded golden trace to this file")
	loadTrace := fs.String("load-trace", "", "analyze a previously saved trace instead of re-profiling")
	dotFile := fs.String("dot", "", "write a Graphviz rendering of the DDG prefix to this file")
	dotEvents := fs.Int64("dot-events", 400, "number of events included in the -dot rendering")
	obsAddr := fs.String("obs-addr", "", "serve /metrics and /debug/pprof on this address while analyzing")
	traceOut := fs.String("trace-out", "", "record phase spans to this JSONL file and print the phase summary")
	server := fs.String("server", "", "analysis daemon address (see `epvf serve`); the result comes from its content-addressed cache")
	timing := fs.Bool("timing", true, "include the analysis timing rows (disable for byte-stable reports across runs)")
	depth := fs.Int("depth", 0, "propagation walk depth (0 = default, negative = unbounded); local analysis only")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := epvfConfig(*depth)

	if *obsAddr != "" {
		reg := obs.NewRegistry()
		obs.SetDefault(reg)
		defer obs.SetDefault(nil)
		srv, err := obs.NewServer(*obsAddr, reg)
		if err != nil {
			return err
		}
		srv.Start()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		fmt.Printf("observability: serving http://%s/{metrics,debug/pprof}\n", srv.Addr())
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		tracer = obs.NewTracer(f)
		tracer.SetProc("epvf")
		obs.SetDefaultTracer(tracer)
		defer obs.SetDefaultTracer(nil)
	}
	defer func() { err = obs.WithFlight(err, tracer) }()

	if *list {
		t := report.NewTable("Built-in benchmarks", "Name", "Domain", "MiniC LOC")
		for _, b := range bench.All() {
			t.AddRow(b.Name, b.Domain, b.LOC())
		}
		fmt.Print(t.String())
		return nil
	}

	if *printSrc {
		b, ok := bench.Get(*benchName)
		if !ok {
			return fmt.Errorf("-print-src needs -bench <name> (got %q)", *benchName)
		}
		fmt.Print(b.SourceAt(*scale))
		return nil
	}

	m, err := loadModule(*benchName, *srcPath, *scale)
	if err != nil {
		return err
	}
	if *printIR {
		fmt.Println(ir.Print(m))
	}

	// sum drives every rendered section; a holds the local analysis
	// backing the trace-dependent extras (-sample, -save-trace, -dot),
	// which a daemon-served summary cannot provide.
	var sum *serve.Summary
	var a *epvf.Analysis
	if *server != "" {
		// The daemon analyzes at the default depth only.
		if *sample > 0 || *saveTrace != "" || *loadTrace != "" || *dotFile != "" || *depth != 0 {
			return fmt.Errorf("-sample, -save-trace, -load-trace, -dot and -depth need a local analysis; drop them or remove -server")
		}
		// With tracing on, the request runs under a local root span whose
		// context travels in the Traceparent header; the daemon's handling
		// spans come back in the reply and are ingested as its children —
		// one trace spanning both processes.
		client := serve.NewClient(*server)
		var root *obs.Span
		if tracer != nil {
			root = tracer.Start("epvf analyze " + m.Name)
			client.Trace = root.Context()
			client.Tracer = tracer
		}
		reply, err := client.Analyze(ir.Print(m))
		root.End()
		if err != nil {
			return err
		}
		// Provenance goes to stderr so stdout stays byte-identical to a
		// local run.
		fmt.Fprintf(os.Stderr, "epvf: %s from %s (module %s, stage %s)\n",
			m.Name, *server, reply.ModuleHash, reply.Stage)
		sum = reply.Summary
	} else {
		var dynInstrs int64
		if *loadTrace != "" {
			f, err := os.Open(*loadTrace)
			if err != nil {
				return err
			}
			defer f.Close()
			tr, err := trace.Load(f, m)
			if err != nil {
				return err
			}
			a = epvf.AnalyzeTrace(tr, cfg)
			dynInstrs = tr.NumEvents()
		} else {
			var golden *interp.Result
			a, golden, err = epvf.AnalyzeModule(m, cfg)
			if err != nil {
				return err
			}
			dynInstrs = golden.DynInstrs
		}
		sum = serve.Summarize(m.Name, a, dynInstrs)
	}
	if *saveTrace != "" {
		f, err := os.Create(*saveTrace)
		if err != nil {
			return err
		}
		if err := a.Trace.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("saved golden trace to %s\n", *saveTrace)
	}
	if *dotFile != "" {
		dot := a.Graph.Dot(ddg.DotOptions{
			MaxEvents: *dotEvents,
			ACEMask:   a.ACEMask,
			CrashDefs: a.CrashResult.DefMask,
		})
		if err := os.WriteFile(*dotFile, []byte(dot), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote DDG rendering to %s\n", *dotFile)
	}

	fmt.Print(sum.RenderMain(*timing))

	if *sample > 0 {
		est := epvf.SampledEstimate(a.Trace, *sample, cfg)
		fmt.Printf("\nSampled ePVF (%.0f%% of output nodes, linearly extrapolated): %.4f (full: %.4f)\n",
			*sample*100, est, sum.EPVF())
	}
	if *classes {
		fmt.Print(sum.RenderClasses())
	}
	if *perFunc {
		fmt.Print(sum.RenderPerFunc())
	}
	if *perInstr > 0 {
		fmt.Print(sum.RenderPerInstr(*perInstr))
	}
	if tracer != nil {
		fmt.Print("\n" + tracer.Summary())
	}
	return nil
}

// loadModule is bench.Load with this command's -list hint on a bad or
// missing benchmark name.
func loadModule(benchName, srcPath string, scale int) (*ir.Module, error) {
	m, err := bench.Load(benchName, srcPath, scale)
	if err != nil && srcPath == "" {
		return nil, fmt.Errorf("%w (see -list)", err)
	}
	return m, err
}
