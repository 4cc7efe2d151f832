package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/ddg"
	"repro/internal/epvf"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/rangeprop"
	"repro/internal/vm"
)

// analysisRef pins one kernel's analysis at scale 1.
type analysisRef struct {
	events, aceBits, crashBits int64
}

// pinnedAnalyses are the scale-1 analyses of the built-in kernels. Any
// change to them is a change to the model's results, not to its speed.
var pinnedAnalyses = map[string]analysisRef{
	"lulesh":         {85034, 3632608, 1870306},
	"particlefilter": {118757, 3420710, 1436612},
	"srad":           {196952, 8141342, 3576316},
	"nw":             {71061, 2123406, 1112277},
	"hotspot":        {194083, 7084942, 2761706},
	"lavamd":         {251365, 9233710, 4169854},
	"bfs":            {50905, 1356178, 685517},
	"lud":            {58143, 2022002, 1160874},
	"pathfinder":     {86033, 2406312, 1220042},
	"mm":             {71729, 2433942, 1203053},
	"kmeans":         {251560, 8380178, 3756384},
}

// analyzeTail is the gated tail percentile of one analysis: what the
// ten-sample rule gives at the benchmark's run length (80-110 analyses,
// 20-27 beyond). It is fixed because the rule's choice moves with the
// number of analyses in a run: 9 or 10 passes gave p75 or p90.
const analyzeTail = 0.75

// smallKernels is the analyze workload's self-test subset.
var smallKernels = []string{"bfs", "lud", "mm"}

type kernelModule struct {
	name string
	m    *ir.Module
}

// compileKernels compiles each named kernel at scale 1, timing every
// compile as a lang.compile call when tr is non-nil.
func compileKernels(names []string, tr *layerTracer) ([]kernelModule, error) {
	out := make([]kernelModule, 0, len(names))
	for _, name := range names {
		b, ok := bench.Get(name)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", name)
		}
		src := b.SourceAt(1)
		var m *ir.Module
		var err error
		compile := func() { m, err = lang.Compile(b.Name, src) }
		if tr != nil {
			tr.timeAllocs("lang.compile", compile)
		} else {
			compile()
		}
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
		out = append(out, kernelModule{name, m})
	}
	return out, nil
}

// runAnalyze drives epvf.AnalyzeModule over every built-in kernel, once
// per pass in a seeded order, for whole passes until the time is up.
func runAnalyze(c *runConfig) (*result, error) {
	res := newResult()
	var tr *layerTracer
	if c.trace {
		tr = newLayerTracer()
		res.tracer = tr
	}
	var names []string
	if c.small {
		names = smallKernels
	} else {
		for _, b := range bench.All() {
			names = append(names, b.Name)
		}
	}

	var mods []kernelModule
	setup, err := measureSetup(func() error {
		var err error
		mods, err = compileKernels(names, tr)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup

	rng := rand.New(rand.NewSource(c.seed))
	order := rng.Perm(len(mods))
	// One untimed analysis lets the heap reach its working size first.
	if _, _, err := epvf.AnalyzeModule(mods[order[0]].m, epvf.Config{}); err != nil {
		return nil, err
	}

	var cost latencies
	var tp throughput
	var plain, traced time.Duration
	var meter allocMeter
	var passes int
	var totals analysisCounts
	rss := startRSSPeak()
	start := time.Now()
	meter.begin()
	for passes == 0 || (!c.small && time.Since(start) < c.dur) {
		var pass analysisCounts
		var passCPU, passWall time.Duration
		for _, k := range order {
			km := mods[k]
			ref := pinnedAnalyses[km.name]
			res.attempted++
			c0 := cpuNow()
			t0 := time.Now()
			a, golden, err := epvf.AnalyzeModule(km.m, epvf.Config{})
			d := time.Since(t0)
			cd := cpuNow() - c0
			cost = append(cost, cd.Seconds())
			passCPU += cd
			passWall += d
			if err != nil {
				res.fail(1, "%s: %v", km.name, err)
				continue
			}
			got := analysisRef{golden.DynInstrs, a.ACEBits, a.CrashResult.CrashBitCount}
			if got != ref {
				res.fail(1, "%s: analysis %+v, pinned %+v", km.name, got, ref)
			}
			if tr == nil {
				continue
			}
			t1 := time.Now()
			rc, err := analyzeLayers(tr, km.m)
			traced += time.Since(t1)
			if err != nil {
				res.fail(1, "%s: traced analysis: %v", km.name, err)
				continue
			}
			if rc.ref() != got || rc.aceNodes != a.ACENodes || rc.accesses != a.CrashResult.AccessesAnalyzed {
				res.fail(1, "%s: traced analysis %+v differs from AnalyzeModule", km.name, rc)
			}
			pass.add(rc)
		}
		tp.round(int64(len(order)), passCPU, passWall)
		plain += passWall
		if tr != nil {
			if passes == 0 {
				totals = pass
			} else if pass != totals {
				res.fail(1, "pass %d: deterministic counts %+v, first pass %+v", passes, pass, totals)
			}
		}
		passes++
	}
	meter.end()
	elapsed := time.Since(start)
	res.e2e["peak_rss_mb"] = rss.end()
	res.setThroughput(c.out, &tp)
	res.setAllocs(&meter, tp.ops)
	fmt.Fprintf(c.out, "analyze: %d passes over %d kernels, %d analyses in %.2fs\n", passes, len(mods), tp.ops, elapsed.Seconds())
	res.setLatencies(c.out, "CPU", cost, analyzeTail)

	if tr != nil {
		res.layer["vm.fallbacks"] = float64(totals.fallbacks)
		res.layer["trace.events"] = float64(totals.events)
		res.layer["ddg.ace_nodes"] = float64(totals.aceNodes)
		res.layer["rangeprop.accesses"] = float64(totals.accesses)
		res.layer["rangeprop.crash_bits"] = float64(totals.crashBits)
		res.layer["obs.trace_overhead_frac"] = (traced - plain).Seconds() / plain.Seconds()
	}
	return res, nil
}

// analysisCounts are the deterministic counts of one traced analysis (or
// their sum over a pass).
type analysisCounts struct {
	events, aceNodes, aceBits, crashBits, accesses, fallbacks int64
}

func (a analysisCounts) ref() analysisRef { return analysisRef{a.events, a.aceBits, a.crashBits} }

func (a *analysisCounts) add(b analysisCounts) {
	a.events += b.events
	a.aceNodes += b.aceNodes
	a.aceBits += b.aceBits
	a.crashBits += b.crashBits
	a.accesses += b.accesses
	a.fallbacks += b.fallbacks
}

// analyzeLayers performs epvf.AnalyzeModule's steps one public call at a
// time — VM compile and profile, DDG/ACE, propagation model, composition —
// timing each.
func analyzeLayers(tr *layerTracer, m *ir.Module) (analysisCounts, error) {
	var n analysisCounts
	var prog *vm.Program
	var cerr error
	tr.timeAllocs("vm.compile", func() { prog, cerr = vm.Compile(m, vm.Options{}) })
	var golden *interp.Result
	var err error
	icfg := interp.Config{Record: true}
	if cerr != nil {
		n.fallbacks++
		tr.timeAllocs("interp.profile", func() { golden, err = interp.Run(m, icfg) })
	} else {
		tr.timeAllocs("vm.profile", func() { golden, err = prog.Run(icfg) })
	}
	if err != nil {
		return n, err
	}
	a := modelLayers(tr, golden)
	n.events = golden.DynInstrs
	n.aceNodes = a.ACENodes
	n.aceBits = a.ACEBits
	n.crashBits = a.CrashResult.CrashBitCount
	n.accesses = a.CrashResult.AccessesAnalyzed
	return n, nil
}

// modelLayers performs epvf.AnalyzeTrace's steps one public call at a
// time.
func modelLayers(tr *layerTracer, golden *interp.Result) *epvf.Analysis {
	t := golden.Trace
	var g *ddg.Graph
	var mask []bool
	tr.timeAllocs("ddg.ace", func() {
		g = ddg.New(t)
		mask = g.ACEMask()
	})
	var cr *rangeprop.Result
	tr.timeAllocs("rangeprop.analyze", func() { cr = rangeprop.Analyze(t, g, mask, rangeprop.Config{}) })
	var a *epvf.Analysis
	tr.timeAllocs("epvf.compose", func() { a = epvf.Compose(t, g, mask, cr) })
	return a
}
