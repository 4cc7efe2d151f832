// Command perfbench is the repository's benchmark: it drives the ePVF
// analysis pipeline, whole fault-injection campaigns and the analysis
// daemon through their real entry points, checks every operation's
// output, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) as one JSON object on its last line.
//
//	perfbench --workload analyze --seed 2016 --seconds 15 --trace 0
//	perfbench --selftest
//
// The traced run times the benchmark's own calls into each layer's public
// functions; it adds nothing inside the program. Workload definitions,
// seeds and the map from layer metrics to end-to-end metrics live in
// definitions.json beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/internal/vm"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// e2eMetrics are reported by every workload's untraced run.
var e2eMetrics = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "op/s"},
	{"ops_per_s", "op/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"peak_rss_mb", "MiB"},
}

// timedCalls are the layer calls the traced run wraps. Each reports
// <call>_<unit> (the median per call for ms/us, busy seconds per campaign
// for s), <call>_calls, <call>_share of the traced busy total and
// <call>_allocs (allocations per call).
var timedCalls = []metricSpec{
	{"lang.compile", "ms"},
	{"vm.compile", "ms"},
	{"vm.profile", "ms"},
	{"interp.golden", "ms"},
	{"interp.profile", "ms"},
	{"ddg.ace", "ms"},
	{"rangeprop.analyze", "ms"},
	{"epvf.compose", "ms"},
	{"inc.analyze", "ms"},
	{"campaign.plan", "ms"},
	{"fi.run", "us"},
	{"attr.observe", "s"},
	{"campaign.log_append", "s"},
	{"ir.parse", "ms"},
	{"content.hash", "us"},
	{"cache.get", "us"},
	{"cache.put", "us"},
	{"serve.summarize", "ms"},
	{"serve.json", "us"},
}

// layerCounts are the traced run's counters, ratios and named remainders.
var layerCounts = []metricSpec{
	{"vm.fallbacks", "count"},
	{"trace.events", "count"},
	{"ddg.ace_nodes", "count"},
	{"rangeprop.accesses", "count"},
	{"rangeprop.crash_bits", "count"},
	{"inc.sections", "count"},
	{"inc.sections_reused", "count"},
	{"inc.reuse_ratio", "frac"},
	{"fi.busy_s", "s"},
	{"fi.events", "count"},
	{"fi.events_per_run", "count"},
	{"snapshot.captures", "count"},
	{"snapshot.restores", "count"},
	{"snapshot.replayed_events", "count"},
	{"snapshot.skipped_events", "count"},
	{"snapshot.converged_ratio", "frac"},
	{"snapshot.dirty_pages", "count"},
	{"campaign.checkpoint_s", "s"},
	{"campaign.engine_self_s", "s"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_ratio", "frac"},
	{"serve.http_self_us", "us"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.edit_p50_ms", "ms"},
	{"serve.warm_p50_ms", "ms"},
	{"serve.warm_tail_ms", "ms"},
	{"obs.trace_overhead_frac", "frac"},
}

// layerMetricSpecs expands timedCalls and layerCounts into the full
// per-layer metric list, in report order.
func layerMetricSpecs() []metricSpec {
	var out []metricSpec
	for _, c := range timedCalls {
		out = append(out,
			metricSpec{c.name + "_" + c.unit, c.unit},
			metricSpec{c.name + "_calls", "count"},
			metricSpec{c.name + "_share", "frac"},
			metricSpec{c.name + "_allocs", "count"},
		)
	}
	return append(out, layerCounts...)
}

// Every workload sets up at least minSetupReps times and until set-up has
// used minSetupCPU; setup_s is the median CPU time of one set-up.
const (
	minSetupReps = 5
	maxSetupReps = 200
	minSetupCPU  = 300 * time.Millisecond
)

// measureSetup runs setup repeatedly and returns the median CPU seconds
// of one run. Between runs, release (if not nil) frees the previous run's
// state, untimed. The state of the last run is what the workload uses.
func measureSetup(setup func() error, release func()) (float64, error) {
	var times []float64
	var total time.Duration
	for len(times) < minSetupReps || (total < minSetupCPU && len(times) < maxSetupReps) {
		if release != nil && len(times) > 0 {
			release()
		}
		c0 := cpuNow()
		if err := setup(); err != nil {
			return 0, err
		}
		d := cpuNow() - c0
		total += d
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed  int64
	dur   time.Duration
	trace bool
	small bool // smallest size, for the self-test
	tmp   string
	out   io.Writer // human-readable report
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int64
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
	tracer            *layerTracer
	// campaigns is the number of traced campaigns; calls whose unit is s
	// report busy seconds per campaign.
	campaigns float64
}

func newResult() *result {
	return &result{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// fail counts n failed operations with a reason (only the first few
// reasons are kept).
func (r *result) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setLatencies fills the per-op latency metrics, the tail at the
// workload's fixed percentile q; basis says what was timed.
func (r *result) setLatencies(out io.Writer, basis string, lat latencies, q float64) {
	r.e2e["op_p50_ms"] = lat.p50() * 1e3
	r.e2e["op_tail_ms"] = reportTail(out, basis, lat, q) * 1e3
}

// reportTail returns the q-quantile of lat and prints it with the number
// of samples beyond it, warning when they are fewer than the ten-sample
// rule asks for.
func reportTail(out io.Writer, basis string, lat latencies, q float64) float64 {
	s := lat.sorted()
	v := quantile(s, q)
	beyond := int(math.Floor((1 - q) * float64(len(s))))
	fmt.Fprintf(out, "op latency (%s): p50 %.3f ms, tail p%g %.3f ms (%d samples, %d beyond)\n",
		basis, quantile(s, 0.5)*1e3, q*100, v*1e3, len(s), beyond)
	if beyond < tailMinBeyond {
		fmt.Fprintf(out, "op latency: only %d samples beyond p%g, fewer than %d\n", beyond, q*100, tailMinBeyond)
	}
	return v
}

// setThroughput fills ops_per_cpu_s and ops_per_s: the medians over
// rounds of ops per second of process CPU time and of wall time. Only the
// wall rate sees time the process spends waiting (a worker idle at a
// shard barrier, a log sync); only the CPU rate is free of time the host
// gives to other guests.
func (r *result) setThroughput(out io.Writer, tp *throughput) {
	r.e2e["ops_per_cpu_s"] = median(tp.rates)
	r.e2e["ops_per_s"] = median(tp.wallRates)
	fmt.Fprintf(out, "throughput: %.4f ops per CPU-second, %.4f ops per wall-second (medians of %d rounds)\n",
		median(tp.rates), median(tp.wallRates), len(tp.rates))
}

// setAllocs fills the allocation metrics from a meter over ops.
func (r *result) setAllocs(a *allocMeter, ops int64) {
	if ops == 0 {
		return
	}
	r.e2e["allocs_per_op"] = float64(a.mallocs) / float64(ops)
	r.e2e["alloc_bytes_per_op"] = float64(a.bytes) / float64(ops)
}

// workloads maps each workload name to its driver. campaign-aslr is not
// in BENCHMARK.json (definitions.json says why) but stays runnable by
// name and in the self-test.
var workloads = map[string]func(*runConfig) (*result, error){
	"analyze":       runAnalyze,
	"campaign":      func(c *runConfig) (*result, error) { return runCampaign(c, 0) },
	"campaign-aslr": func(c *runConfig) (*result, error) { return runCampaign(c, 64) },
	"serve":         runServe,
}

// workloadOrder is the self-test order.
var workloadOrder = []string{"analyze", "campaign", "campaign-aslr", "serve"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", "))
	seed := fs.Int64("seed", 2016, "input seed")
	seconds := fs.Float64("seconds", 15, "measurement time")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	small := fs.Bool("small", false, "run at the smallest size (self-test)")
	selftest := fs.Bool("selftest", false, "run every workload small, traced and untraced, each in its own process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *selftest {
		if err := runSelftest(stdout, "BENCHMARK.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: selftest:", err)
			return 1
		}
		fmt.Fprintln(stdout, "perfbench: selftest ok")
		return 0
	}
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	// Every workload runs in its own process; state a previous workload
	// could have installed globally must be absent.
	if vm.DefaultCache() != nil || obs.Default() != nil {
		fmt.Fprintln(os.Stderr, "perfbench: process-global VM code cache or obs registry already installed")
		return 1
	}
	tmpRoot := filepath.Join(buildDir(), "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(tmpRoot, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	cfg := &runConfig{
		seed:  *seed,
		dur:   time.Duration(*seconds * float64(time.Second)),
		trace: *traceFlag == 1,
		small: *small,
		tmp:   tmp,
		out:   stdout,
	}
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %s, %.0fs\n", *workload, cfg.seed, mode, cfg.dur.Seconds())
	res, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if cfg.trace {
		fillLayerShares(res)
		printLayerTable(stdout, res)
	}
	for _, p := range res.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	if !cfg.trace {
		printE2E(stdout, res)
	}
	line, err := resultJSON(res, cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// buildDir is where builds and scratch files go, inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// outMetric is one metric in the result line.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON renders the final result line: every end-to-end metric for
// an untraced run, every per-layer metric for a traced one.
func resultJSON(res *result, traced bool) ([]byte, error) {
	specs, vals := e2eMetrics, res.e2e
	if traced {
		specs, vals = layerMetricSpecs(), res.layer
	}
	metrics := make(map[string]outMetric, len(specs))
	for _, s := range specs {
		metrics[s.name] = outMetric{Value: vals[s.name], Unit: s.unit}
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{res.failed == 0 && len(res.problems) == 0, res.attempted, min(res.failed, res.attempted), metrics})
}

// printE2E renders the end-to-end metrics as a table.
func printE2E(out io.Writer, res *result) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tvalue\tunit\t")
	for _, s := range e2eMetrics {
		fmt.Fprintf(tw, "%s\t%.4f\t%s\t\n", s.name, res.e2e[s.name], s.unit)
	}
	fmt.Fprintf(tw, "fail_frac\t%.4f\tfailed/attempted\t\n", float64(res.failed)/float64(max(res.attempted, 1)))
	tw.Flush()
}

// fillLayerShares derives each timed call's value, count, share and
// allocations from the tracer.
func fillLayerShares(res *result) {
	tr := res.tracer
	if tr == nil {
		return
	}
	var total time.Duration
	for _, s := range tr.calls {
		total += s.busy
	}
	for _, c := range timedCalls {
		s := tr.calls[c.name]
		if s == nil {
			continue
		}
		key := c.name + "_" + c.unit
		switch c.unit {
		case "ms":
			res.layer[key] = s.durs.p50() * 1e3
		case "us":
			res.layer[key] = s.durs.p50() * 1e6
		case "s":
			res.layer[key] = s.busy.Seconds() / max(res.campaigns, 1)
		}
		res.layer[c.name+"_calls"] = float64(len(s.durs))
		if total > 0 {
			res.layer[c.name+"_share"] = s.busy.Seconds() / total.Seconds()
		}
		if s.allocCalls > 0 {
			res.layer[c.name+"_allocs"] = float64(s.allocs) / float64(s.allocCalls)
		}
	}
}

// printLayerTable renders the traced run's per-layer report.
func printLayerTable(out io.Writer, res *result) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer call\tcalls\tbusy ms\tshare\tallocs/call\tvalue\tunit\t")
	type row struct {
		spec metricSpec
		busy time.Duration
	}
	var rows []row
	for _, c := range timedCalls {
		if s := res.tracer.calls[c.name]; s != nil {
			rows = append(rows, row{c, s.busy})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].busy > rows[j].busy })
	for _, r := range rows {
		n := r.spec.name
		fmt.Fprintf(tw, "%s\t%.0f\t%.1f\t%.3f\t%.0f\t%.4f\t%s\t\n", n, res.layer[n+"_calls"],
			r.busy.Seconds()*1e3, res.layer[n+"_share"], res.layer[n+"_allocs"],
			res.layer[n+"_"+r.spec.unit], r.spec.unit)
	}
	tw.Flush()
	tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer metric\tvalue\tunit\t")
	for _, s := range layerCounts {
		fmt.Fprintf(tw, "%s\t%.4f\t%s\t\n", s.name, res.layer[s.name], s.unit)
	}
	tw.Flush()
}
