package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// setupTracing builds the always-on tracer every campaign subcommand
// records correlated spans with. proc names this process in the spans;
// traceOut, when non-empty, additionally streams every span as JSONL.
// The returned closer flushes the sink and marks the subcommand's error,
// if any, with the tracer, so main's abnormal-exit dump shows its recent
// spans.
func setupTracing(proc, traceOut string) (*obs.Tracer, func(error) error, error) {
	var sink *os.File
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, nil, err
		}
		sink = f
	}
	var tracer *obs.Tracer
	if sink != nil {
		tracer = obs.NewTracer(sink)
	} else {
		tracer = obs.NewTracer(nil)
	}
	tracer.SetProc(proc)
	obs.SetDefaultTracer(tracer)
	stop := func(err error) error {
		obs.SetDefaultTracer(nil)
		if sink != nil {
			sink.Close()
		}
		return obs.WithFlight(err, tracer)
	}
	return tracer, stop, nil
}

// runTrace renders the cross-process trace persisted in a campaign log:
// a text waterfall per trace, or a self-contained HTML timeline with
// -html. Spans from every process (engine, coordinator, workers, the
// analysis daemon) appear in one tree because they share the plan's
// deterministic trace identity.
func runTrace(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("campaign trace", flag.ContinueOnError)
	logPath := fs.String("log", "", "JSONL result log (required)")
	htmlPath := fs.String("html", "", "write a self-contained HTML timeline to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := *logPath
	if path == "" && fs.NArg() == 1 {
		path = fs.Arg(0)
	}
	if path == "" {
		return fmt.Errorf("trace requires -log <path>")
	}
	d, err := campaign.ReadLog(path)
	if err != nil {
		return err
	}
	if len(d.Spans) == 0 {
		return fmt.Errorf("log %s carries no trace spans (written by a pre-tracing build?)", path)
	}
	trees := obs.BuildSpanTrees(d.Spans)
	if *htmlPath != "" {
		title := fmt.Sprintf("%s plan %s", d.Plan.Benchmark, d.Plan.ID)
		doc := obs.TimelineHTML(title, trees)
		f, err := os.Create(*htmlPath)
		if err != nil {
			return err
		}
		if err := doc.Render(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: wrote %s\n", *htmlPath)
		return nil
	}
	for _, tr := range trees {
		fmt.Fprint(out, tr.RenderWaterfall())
	}
	return nil
}
