package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/epvf"
	"repro/internal/inc"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Request classes of the serve workload, and the stage the daemon must
// answer each with.
const (
	classCold = "cold"
	classEdit = "edit"
	classWarm = "warm"
)

// serveTail is the gated tail percentile of one request: what the
// ten-sample rule gives at the benchmark's run length (160-190 requests,
// 16-19 beyond), fixed so that it does not move with the request count.
// It falls in the cold class.
const serveTail = 0.90

var expectStage = map[string]string{
	classCold: serve.StageComputed,
	classEdit: serve.StageIncremental,
	classWarm: serve.StageSummary,
}

// serveEdit is a one-constant edit inside a kernel's main function that
// touches no other function's section.
type serveEdit struct {
	old, format string
	values      []int
}

// serveKernels are the serve workload's kernels, each with its edit.
// Their control flow does not depend on the input data, so every seed
// costs the same.
var serveKernels = map[string]serveEdit{
	"mm":         {"double sum = 0.0;", "double sum = %d.0;", []int{1, 2, 3, 4, 5, 6, 7, 8, 9}},
	"pathfinder": {"irand() % 10;", "irand() %% %d;", []int{5, 6, 7, 8, 9, 11, 12, 13, 14, 15}},
	"nw":         {"int penalty = 10;", "int penalty = %d;", []int{5, 6, 7, 8, 9, 11, 12, 13, 14, 15}},
	"lud":        {"+ (double)n;", "+ (double)n + %d.0;", []int{1, 2, 3, 4, 5, 6, 7, 8, 9}},
}

var (
	serveOrder      = []string{"lud", "mm", "nw", "pathfinder"}
	smallServeOrder = []string{"mm"}
	// dataSeedLine is the line of main that seeds the kernel's input
	// generator; cold modules get a fresh seed there.
	dataSeedLine = regexp.MustCompile(`(?m)^  seed = \d+;$`)
)

// renderOpts selects every section of the report for the byte-identity
// check.
var renderOpts = serve.RenderOptions{Classes: true, PerFunc: true, PerInstr: 20}

// moduleKey names one generated module: a kernel with an input-generator
// seed in main, and the constant of its one-constant edit (0 for the
// unedited module).
type moduleKey struct {
	kernel   string
	dataSeed int
	edit     int
}

// source returns the module's MiniC source, made from bench.SourceAt.
func (k moduleKey) source() (string, error) {
	b, ok := bench.Get(k.kernel)
	if !ok {
		return "", fmt.Errorf("unknown kernel %s", k.kernel)
	}
	seedLine := fmt.Sprintf("  seed = %d;", k.dataSeed)
	src := dataSeedLine.ReplaceAllString(b.SourceAt(1), seedLine)
	if !strings.Contains(src, seedLine) {
		return "", fmt.Errorf("%s: input seed did not apply", k.kernel)
	}
	if k.edit == 0 {
		return src, nil
	}
	e := serveKernels[k.kernel]
	edited := strings.Replace(src, e.old, fmt.Sprintf(e.format, k.edit), 1)
	if edited == src {
		return "", fmt.Errorf("%s: edit did not apply", k.kernel)
	}
	return edited, nil
}

// moduleIR compiles the module and prints its IR, timing the compile as
// lang.compile when tr is set.
func moduleIR(k moduleKey, tr *layerTracer) (string, error) {
	src, err := k.source()
	if err != nil {
		return "", err
	}
	var m *ir.Module
	compile := func() { m, err = lang.Compile(k.kernel, src) }
	if tr != nil {
		tr.timeAllocs("lang.compile", compile)
	} else {
		compile()
	}
	if err != nil {
		return "", fmt.Errorf("compile %s: %w", k.kernel, err)
	}
	return ir.Print(m), nil
}

// serveRequest is one request of the stream.
type serveRequest struct {
	class string
	key   moduleKey
	ir    string
}

// stageCapture records the stage header of the last analyze reply.
type stageCapture struct {
	rt    http.RoundTripper
	stage string
}

func (s *stageCapture) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := s.rt.RoundTrip(req)
	if err == nil {
		s.stage = resp.Header.Get(serve.StageHeader)
	}
	return resp, err
}

// startDaemon starts an incremental analysis daemon with a disk cache in
// dir and waits until it answers.
func startDaemon(dir string) (*serve.Server, error) {
	srv, err := serve.New(serve.Config{Addr: "127.0.0.1:0", CacheDir: dir, Incremental: true})
	if err != nil {
		return nil, err
	}
	srv.Start()
	if _, err := serve.NewClient(srv.Addr()).Healthz(); err != nil {
		stopDaemon(srv)
		return nil, err
	}
	return srv, nil
}

func stopDaemon(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// streamGen generates the seeded request stream. One cycle is the
// request sequence of `epvf gate` run twice against one cache, as
// scripts/gate_demo.sh runs it (cold gate, then warm gate): the baseline
// module (cold), the re-verified edit of it (edit), then both again
// (warm, warm). So the mix is cold:edit:warm = 1:1:2. The edit is the
// demo's one-constant edit in main rather than protect.ApplyByID, whose
// protections may touch more than one function.
type streamGen struct {
	rng    *rand.Rand
	cycle  int
	tracer *layerTracer
}

// pass returns one cycle per kernel, kernels in a seeded order.
func (g *streamGen) pass(kernels []string) ([]serveRequest, error) {
	var out []serveRequest
	for _, k := range g.rng.Perm(len(kernels)) {
		name := kernels[k]
		values := serveKernels[name].values
		g.cycle++
		cold := moduleKey{kernel: name, dataSeed: g.cycle*1000003 + g.rng.Intn(1000000)}
		ed := cold
		ed.edit = values[g.rng.Intn(len(values))]
		coldIR, err := moduleIR(cold, g.tracer)
		if err != nil {
			return nil, err
		}
		editIR, err := moduleIR(ed, g.tracer)
		if err != nil {
			return nil, err
		}
		out = append(out,
			serveRequest{classCold, cold, coldIR},
			serveRequest{classEdit, ed, editIR},
			serveRequest{classWarm, cold, coldIR},
			serveRequest{classWarm, ed, editIR})
	}
	return out, nil
}

// runServe drives an in-process incremental daemon with one closed-loop
// client over the seeded gate-loop request stream, for whole passes until
// the time is up.
func runServe(c *runConfig) (*result, error) {
	res := newResult()
	var tr *layerTracer
	if c.trace {
		tr = newLayerTracer()
		res.tracer = tr
	}
	kernels := serveOrder
	if c.small {
		kernels = smallServeOrder
	}
	var srv *serve.Server
	defer func() {
		if srv != nil {
			stopDaemon(srv)
		}
	}()
	started := 0
	setup, err := measureSetup(func() error {
		d, err := startDaemon(filepath.Join(c.tmp, fmt.Sprintf("daemon-%d", started)))
		started++
		if err == nil {
			srv = d
		}
		return err
	}, func() {
		// Only the last daemon serves. Each earlier one is stopped before
		// the next starts, so its telemetry sampler never ticks inside a
		// timed start or the measurement.
		stopDaemon(srv)
		srv = nil
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup

	capture := &stageCapture{rt: http.DefaultTransport.(*http.Transport).Clone()}
	client := serve.NewClient(srv.Addr())
	client.HTTP = &http.Client{Transport: capture, Timeout: 5 * time.Minute}
	var replica *serveReplica
	if tr != nil {
		store, err := cache.Open(cache.Config{Dir: filepath.Join(c.tmp, "replica")})
		if err != nil {
			return nil, err
		}
		replica = &serveReplica{tr: tr, store: store}
	}

	gen := &streamGen{rng: rand.New(rand.NewSource(c.seed)), tracer: tr}
	renders := make(map[moduleKey][]renderHash) // checked after the run
	cost := map[string]latencies{}              // CPU time per request, by class
	wallByClass := map[string]latencies{}
	var all latencies
	var tp throughput
	var replicaWall time.Duration
	var selfUS []float64
	var meter allocMeter
	var passes int
	rss := startRSSPeak()
	start := time.Now()
	for passes == 0 || (!c.small && time.Since(start) < c.dur) {
		reqs, err := gen.pass(kernels)
		if err != nil {
			return nil, err
		}
		var passCPU, passWall time.Duration
		replies := make([]*serve.Summary, len(reqs))
		meter.begin()
		for i, rq := range reqs {
			res.attempted++
			c0 := cpuNow()
			t0 := time.Now()
			reply, err := client.Analyze(rq.ir)
			d := time.Since(t0)
			cd := cpuNow() - c0
			if err != nil {
				res.fail(1, "%s %s: %v", rq.class, rq.key.kernel, err)
				continue
			}
			replies[i] = reply.Summary
			all = append(all, cd.Seconds())
			cost[rq.class] = append(cost[rq.class], cd.Seconds())
			wallByClass[rq.class] = append(wallByClass[rq.class], d.Seconds())
			passCPU += cd
			passWall += d
			want := expectStage[rq.class]
			switch {
			case capture.stage != want || reply.Stage != want:
				res.fail(1, "%s %s: stage header %q, reply %q, want %q", rq.class, rq.key.kernel, capture.stage, reply.Stage, want)
			case rq.class == classEdit && (reply.Sections == nil || reply.Sections.Recomputed != 1):
				res.fail(1, "edit %s: sections %+v, want exactly one recomputed", rq.key.kernel, reply.Sections)
			}
			if replica == nil {
				continue
			}
			t1 := time.Now()
			rep, err := replica.handle(rq.ir)
			replicaWall += time.Since(t1)
			if err != nil {
				res.fail(1, "%s %s: traced pipeline: %v", rq.class, rq.key.kernel, err)
				continue
			}
			selfUS = append(selfUS, (d-rep.busy).Seconds()*1e6)
			if rep.stage != reply.Stage || !sameSections(rep.sections, reply.Sections) ||
				rep.summary.Render(renderOpts) != reply.Summary.Render(renderOpts) {
				res.fail(1, "%s %s: traced pipeline answered stage %s, sections %+v; daemon %s, %+v",
					rq.class, rq.key.kernel, rep.stage, rep.sections, reply.Stage, reply.Sections)
			}
		}
		meter.end()
		tp.round(int64(len(reqs)), passCPU, passWall)
		passes++
		// Rendering the replies is the benchmark's own check work, so it
		// stays outside the allocation meter; only a hash of each render is
		// kept until the check.
		for i, s := range replies {
			if s != nil {
				renders[reqs[i].key] = append(renders[reqs[i].key], hashRender(s))
			}
		}
	}
	elapsed := time.Since(start)
	res.e2e["peak_rss_mb"] = rss.end()
	stats := srv.Store().Stats()
	ops := int64(len(all))
	res.setThroughput(c.out, &tp)
	res.setAllocs(&meter, ops)
	fmt.Fprintf(c.out, "serve: %d passes, %d requests (%d cold, %d edit, %d warm) in %.2fs; daemon cache %d hits, %d misses\n",
		passes, ops, len(cost[classCold]), len(cost[classEdit]), len(cost[classWarm]), elapsed.Seconds(), stats.Hits, stats.Misses)
	// Half the requests are warm, so a plain median over all requests
	// would sit on the boundary between the warm half and the rest.
	// op_p50_ms is instead each class's median weighted by its share of
	// the requests.
	var mixP50 float64
	for _, class := range []string{classCold, classEdit, classWarm} {
		mixP50 += cost[class].p50() * float64(len(cost[class])) / float64(max(ops, 1))
	}
	res.e2e["op_p50_ms"] = mixP50 * 1e3
	fmt.Fprintf(c.out, "op latency (CPU): class medians weighted by the mix %.3f ms\n", mixP50*1e3)
	res.e2e["op_tail_ms"] = reportTail(c.out, "CPU", all, serveTail) * 1e3
	for _, basis := range []struct {
		name string
		by   map[string]latencies
	}{{"CPU", cost}, {"wall", wallByClass}} {
		q, v, beyond := basis.by[classWarm].tail()
		fmt.Fprintf(c.out, "serve (%s): cold p50 %.3f ms, edit p50 %.3f ms, warm p50 %.3f ms, warm tail p%g %.3f ms (%d samples, %d beyond)\n",
			basis.name, basis.by[classCold].p50()*1e3, basis.by[classEdit].p50()*1e3, basis.by[classWarm].p50()*1e3,
			q*100, v*1e3, len(basis.by[classWarm]), beyond)
	}

	checked := checkRenders(res, renders)
	fmt.Fprintf(c.out, "serve: %d distinct modules checked byte-identical against local analyses\n", checked)

	if tr != nil {
		n := replica.counts
		res.layer["trace.events"] = float64(n.events) / float64(max(n.profiles, 1))
		res.layer["inc.sections"] = float64(n.sections) / float64(max(n.analyses, 1))
		res.layer["inc.sections_reused"] = float64(n.reused) / float64(max(n.analyses, 1))
		if n.sections > 0 {
			res.layer["inc.reuse_ratio"] = float64(n.reused) / float64(n.sections)
		}
		res.layer["cache.hits"] = float64(stats.Hits) / float64(ops)
		res.layer["cache.misses"] = float64(stats.Misses) / float64(ops)
		if stats.Hits+stats.Misses > 0 {
			res.layer["cache.hit_ratio"] = float64(stats.Hits) / float64(stats.Hits+stats.Misses)
		}
		res.layer["serve.http_self_us"] = median(selfUS)
		_, warmTail, _ := cost[classWarm].tail()
		res.layer["serve.cold_p50_ms"] = cost[classCold].p50() * 1e3
		res.layer["serve.edit_p50_ms"] = cost[classEdit].p50() * 1e3
		res.layer["serve.warm_p50_ms"] = cost[classWarm].p50() * 1e3
		res.layer["serve.warm_tail_ms"] = warmTail * 1e3
		res.layer["obs.trace_overhead_frac"] = (replicaWall - tp.wall).Seconds() / tp.wall.Seconds()
	}
	return res, nil
}

// renderHash identifies one rendered report.
type renderHash [sha256.Size]byte

func hashRender(s *serve.Summary) renderHash {
	return sha256.Sum256([]byte(s.Render(renderOpts)))
}

// checkRenders compares every reply's rendered report with a local
// analysis of the same module, compiled again from its key and analyzed
// on the walker, so the check shares no code cache with the daemon. It
// returns the number of modules checked.
func checkRenders(res *result, renders map[moduleKey][]renderHash) int {
	for key, got := range renders {
		irText, err := moduleIR(key, nil)
		if err != nil {
			res.fail(int64(len(got)), "%v", err)
			continue
		}
		m, err := ir.Parse(irText)
		if err != nil {
			res.fail(int64(len(got)), "reparse %s: %v", key.kernel, err)
			continue
		}
		a, golden, err := epvf.AnalyzeModule(m, epvf.Config{Engine: "walker"})
		if err != nil {
			res.fail(int64(len(got)), "local analysis of %s: %v", m.Name, err)
			continue
		}
		want := hashRender(serve.Summarize(m.Name, a, golden.DynInstrs))
		for _, g := range got {
			if g != want {
				res.fail(1, "%+v: daemon report differs from the local analysis", key)
			}
		}
	}
	return len(renders)
}

func sameSections(a *serve.SectionStats, b *serve.SectionStats) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Total == b.Total && a.Reused == b.Reused && a.Recomputed == b.Recomputed
}

// serveReplica performs the daemon's request path one public call at a
// time against a store of its own, timing each call.
type serveReplica struct {
	tr     *layerTracer
	store  *cache.Store
	counts struct {
		profiles, events, analyses, sections, reused int64
	}
}

type replicaReply struct {
	stage    string
	sections *serve.SectionStats
	summary  *serve.Summary
	busy     time.Duration // time inside the timed calls
}

func (r *serveReplica) handle(irText string) (*replicaReply, error) {
	out := &replicaReply{stage: serve.StageSummary}
	step := func(name string, fn func()) { out.busy += r.tr.timeAllocs(name, fn) }
	var err error
	step("serve.json", func() {
		var body []byte
		if body, err = json.Marshal(serve.AnalyzeRequest{IR: irText}); err == nil {
			err = json.Unmarshal(body, &serve.AnalyzeRequest{})
		}
	})
	if err != nil {
		return nil, err
	}
	var m *ir.Module
	step("ir.parse", func() { m, err = ir.Parse(irText) })
	if err != nil {
		return nil, err
	}
	var h string
	step("content.hash", func() { h = serve.ModuleHash(m) })
	var data []byte
	var hit bool
	step("cache.get", func() { data, hit = r.store.Get(serve.KindSummary, h) })
	if !hit {
		out.stage = serve.StageComputed
		var traced bool
		step("cache.get", func() { _, traced = r.store.Get(serve.KindTrace, h) })
		if traced {
			return nil, fmt.Errorf("unexpected golden trace cached for a new module")
		}
		var golden *interp.Result
		step("interp.profile", func() { golden, err = interp.Run(m, interp.Config{Record: true}) })
		if err != nil {
			return nil, err
		}
		t := golden.Trace
		r.counts.profiles++
		r.counts.events += t.NumEvents()
		step("cache.put", func() { err = saveTrace(r.store, h, t) })
		if err != nil {
			return nil, err
		}
		var ires *inc.Result
		step("inc.analyze", func() { ires, err = inc.AnalyzeTrace(t, inc.Config{Store: r.store}) })
		if err != nil {
			return nil, err
		}
		r.counts.analyses++
		r.counts.sections += int64(len(ires.Stats.Sections))
		r.counts.reused += int64(ires.Stats.Reused)
		if ires.Stats.Reused > 0 {
			out.stage = serve.StageIncremental
		}
		out.sections = &serve.SectionStats{
			Total:      len(ires.Stats.Sections),
			Reused:     ires.Stats.Reused,
			Recomputed: ires.Stats.Recomputed,
		}
		var sum *serve.Summary
		step("serve.summarize", func() { sum = serve.Summarize(m.Name, ires.Analysis, ires.DynInstrs) })
		step("serve.json", func() { data, err = json.Marshal(sum) })
		if err != nil {
			return nil, err
		}
		step("cache.put", func() { err = r.store.Put(serve.KindSummary, h, data) })
		if err != nil {
			return nil, err
		}
	}
	step("serve.json", func() {
		out.summary = new(serve.Summary)
		if err = json.Unmarshal(data, out.summary); err != nil {
			return
		}
		var body []byte
		reply := serve.AnalyzeReply{ModuleHash: h, Stage: out.stage, Summary: out.summary, Sections: out.sections}
		if body, err = json.Marshal(reply); err == nil {
			err = json.Unmarshal(body, &serve.AnalyzeReply{})
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// saveTrace stores a golden trace the way the daemon does.
func saveTrace(store *cache.Store, h string, t *trace.Trace) error {
	var buf bytes.Buffer
	if err := t.Save(&buf); err != nil {
		return err
	}
	return store.Put(serve.KindTrace, h, buf.Bytes())
}
