package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/content"
	"repro/internal/dashboard"
	"repro/internal/epvf"
	"repro/internal/inc"
	"repro/internal/ir"
	"repro/internal/obs"
)

// moduleTag is the domain tag of the analysis content address: the
// sha256 of the module's canonical IR print under this tag keys the
// summary cache entries.
const moduleTag = "epvf-analysis-v1"

// Cache kinds the daemon stores results under.
const (
	KindSummary  = "summary"
	KindCampaign = "campaign"
	KindAttr     = "attr"
)

// KindTrace is a cache kind the daemon no longer stores or reads. It stays
// exported because the benchmark's request replica (perfbench/serve.go)
// still names it.
const KindTrace = "trace"

// ModuleHash returns the content address of a module: the hash of its
// canonical IR print. Clients and daemon agree on this key because both
// reprint the parsed module before hashing.
func ModuleHash(m *ir.Module) string {
	return content.Hash(moduleTag, []byte(ir.Print(m)))
}

// Config describes a daemon.
type Config struct {
	// Addr is the listen address (host:port; :0 picks a free port).
	Addr string
	// CacheDir is the disk spill tier's directory; empty keeps results
	// in memory only (they die with the process).
	CacheDir string
	// CacheMemBytes bounds the memory tier; zero means the cache
	// default.
	CacheMemBytes int64
	// Registry receives the epvf_serve_* and epvf_cache_* metrics; nil
	// creates a private one.
	Registry *obs.Registry
	// Tracer, when non-nil, records a handling span per request and
	// returns it to the caller (in the analyze reply, or the X-Epvf-Span
	// header for blob endpoints) so clients can stitch the daemon's work
	// into their own traces. /debug/flight shows its recent spans; its
	// memory stays bounded however long the daemon runs.
	Tracer *obs.Tracer
	// Incremental enables the incremental analysis tier: below the
	// summary cache, analyses compose from per-function section profiles
	// (internal/inc) stored in the same cache, so an edit to one
	// function re-walks only that function's section. Only the
	// benchmark's serve workload (perfbench/serve.go) and this package's
	// tests set it; no command does. It stays because that workload still
	// starts an incremental daemon, and goes with internal/inc once the
	// benchmark moves it onto a plain daemon (ROADMAP item 1).
	Incremental bool
}

// Server is the analysis daemon: one obs.Server carrying /metrics,
// /healthz, pprof and the /v1 analysis endpoints, backed by one
// content-addressed store.
type Server struct {
	reg         *obs.Registry
	obs         *obs.Server
	store       *cache.Store
	tracer      *obs.Tracer
	incremental bool
	dash        *dashboard.Mounted
}

// New binds the address and prepares the cache, but does not serve
// until Start.
func New(cfg Config) (*Server, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	store, err := cache.Open(cache.Config{
		Dir:      cfg.CacheDir,
		MemBytes: cfg.CacheMemBytes,
		Registry: reg,
	})
	if err != nil {
		return nil, err
	}
	osrv, err := obs.NewServer(cfg.Addr, reg)
	if err != nil {
		return nil, err
	}
	s := &Server{reg: reg, obs: osrv, store: store, tracer: cfg.Tracer, incremental: cfg.Incremental}
	osrv.Handle("/v1/analyze", http.HandlerFunc(s.handleAnalyze))
	osrv.Handle("/v1/campaign/log", s.blobHandler(KindCampaign))
	osrv.Handle("/v1/attr/snapshot", s.blobHandler(KindAttr))
	osrv.Handle("/debug/flight", obs.FlightHandler(cfg.Tracer))
	osrv.AddHealth("cache", func() any { return store.Stats() })
	// The live telemetry layer — /ts, /events, /alerts, /dashboard —
	// rides the same listener; alert firings capture pprof bundles into
	// the daemon's own store (kind obs-profile-v1).
	s.dash = dashboard.Mount(osrv, dashboard.Config{
		Registry: reg,
		Title:    "epvf analysis daemon",
		Profiles: store,
	})
	return s, nil
}

// Store exposes the daemon's result store (the experiments suite and
// tests put campaign logs in directly).
func (s *Server) Store() *cache.Store { return s.store }

// Addr returns the bound address.
func (s *Server) Addr() string { return s.obs.Addr() }

// Start serves in a background goroutine until Shutdown.
func (s *Server) Start() { s.obs.Start() }

// Shutdown drains gracefully: in-flight analyses finish (their results
// land in the disk tier for the next process) before the listener
// closes, or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.dash.Stop()
	return s.obs.Shutdown(ctx)
}

func (s *Server) countRequest(endpoint, outcome string) {
	s.reg.Counter("epvf_serve_requests_total", "endpoint", endpoint, "outcome", outcome).Inc()
}

// observeStage records one request's end-to-end latency into the
// per-cache-stage histogram: which tier answered (summary-cache,
// incremental, computed, or a blob kind) and how the request ended.
func (s *Server) observeStage(stage, outcome string, start time.Time) {
	s.reg.Histogram("epvf_cache_stage_latency_seconds", obs.LatencyBuckets,
		"stage", stage, "outcome", outcome).Observe(time.Since(start).Seconds())
}

// startSpan opens a handling span for one request, parented under the
// caller's span when the request carries a Traceparent header — the
// cross-process edge that stitches daemon work into client traces. Nil
// when the daemon runs without a tracer.
func (s *Server) startSpan(name string, req *http.Request) *obs.Span {
	if s.tracer == nil {
		return nil
	}
	if pctx, ok := obs.ExtractTraceHeader(req.Header); ok {
		return s.tracer.StartRemote(name, pctx)
	}
	return s.tracer.Start(name)
}

// spanHeader ends sp and stamps its JSON-encoded record on the response
// headers (blob endpoints; the analyze endpoint embeds spans in its
// JSON reply instead).
func spanHeader(w http.ResponseWriter, sp *obs.Span) {
	if sp == nil {
		return
	}
	if b, err := json.Marshal(sp.EndRecord()); err == nil {
		w.Header().Set(SpanHeader, string(b))
	}
}

// handleAnalyze is POST /v1/analyze: parse the module, address it by
// content, and answer from the summary cache or else run the analysis
// (composed from cached section profiles on an incremental daemon).
// Concurrent requests for the same module share one computation via the
// store's singleflight. A body that does not decode or parse is a 400; a
// module that parses but cannot be analyzed is a 422.
func (s *Server) handleAnalyze(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	t0 := time.Now()
	sp := s.startSpan("analyze", req)
	var areq AnalyzeRequest
	if err := json.NewDecoder(req.Body).Decode(&areq); err != nil {
		sp.End()
		s.countRequest("analyze", "bad_request")
		s.observeStage(StageUnresolved, "bad_request", t0)
		w.Header().Set(StageHeader, StageUnresolved)
		http.Error(w, fmt.Sprintf("decode request: %v", err), http.StatusBadRequest)
		return
	}
	m, err := ir.Parse(areq.IR)
	if err == nil && len(m.Funcs) == 0 {
		err = fmt.Errorf("empty module")
	}
	if err != nil {
		sp.End()
		s.countRequest("analyze", "bad_request")
		s.observeStage(StageUnresolved, "bad_request", t0)
		w.Header().Set(StageHeader, StageUnresolved)
		http.Error(w, fmt.Sprintf("parse IR: %v", err), http.StatusBadRequest)
		return
	}
	modHash := ModuleHash(m)

	// stage is set by this request's fill closure; when another
	// goroutine's flight (or the cache itself) supplied the bytes, it
	// stays empty and the result counts as a summary-cache hit.
	stage := ""
	var sections *SectionStats
	data, hit, err := s.store.GetOrFill(KindSummary, modHash, func() ([]byte, error) {
		sum, st, secs, err := s.analyze(m)
		if err != nil {
			return nil, unanalyzable{err}
		}
		stage, sections = st, secs
		return json.Marshal(sum)
	})
	if err != nil {
		sp.End()
		outcome, code := "error", http.StatusInternalServerError
		if errors.As(err, new(unanalyzable)) {
			outcome, code = "bad_request", http.StatusUnprocessableEntity
		}
		s.countRequest("analyze", outcome)
		s.observeStage(StageUnresolved, outcome, t0)
		w.Header().Set(StageHeader, StageUnresolved)
		http.Error(w, err.Error(), code)
		return
	}
	if hit || stage == "" {
		stage, sections = StageSummary, nil
	}
	var sum Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		sp.End()
		s.countRequest("analyze", "error")
		s.observeStage(stage, "error", t0)
		w.Header().Set(StageHeader, stage)
		http.Error(w, fmt.Sprintf("decode cached summary: %v", err), http.StatusInternalServerError)
		return
	}
	s.countRequest("analyze", stage)
	s.observeStage(stage, "ok", t0)
	reply := AnalyzeReply{
		ModuleHash: modHash,
		Stage:      stage,
		CacheHit:   stage != StageComputed,
		Summary:    &sum,
		Sections:   sections,
	}
	if sp != nil {
		sp.Add("cache_hit", boolCounter(reply.CacheHit))
		reply.Spans = []obs.SpanRecord{sp.EndRecord()}
	}
	w.Header().Set(StageHeader, stage)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reply)
}

// unanalyzable marks an analysis failure of a module that parsed: no
// main, a main that takes parameters, a function over the VM's register
// slot limit, a golden run past epvf.MaxGoldenEvents, or a defect only
// execution finds.
// The module is the client's, so the reply is 422, not 500; a failure to
// store the result stays a 500.
type unanalyzable struct{ error }

func boolCounter(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// analyze computes a summary below the summary cache. A plain daemon runs
// the whole analysis; an incremental one composes it from per-function
// section profiles (internal/inc), so after an edit to one function only
// that function's walks re-run, and the stage says whether any section
// was reused. Both profile under epvf.MaxGoldenEvents, which bounds a
// request's memory.
func (s *Server) analyze(m *ir.Module) (*Summary, string, *SectionStats, error) {
	if !s.incremental {
		a, golden, err := epvf.AnalyzeModule(m, epvf.Config{})
		if err != nil {
			return nil, "", nil, err
		}
		return Summarize(m.Name, a, golden.DynInstrs), StageComputed, nil, nil
	}
	r, err := inc.AnalyzeModule(m, inc.Config{Store: s.store, Registry: s.reg})
	if err != nil {
		return nil, "", nil, err
	}
	stage := StageComputed
	if r.Stats.Reused > 0 {
		stage = StageIncremental
	}
	secs := &SectionStats{
		Total:           len(r.Stats.Sections),
		Reused:          r.Stats.Reused,
		Recomputed:      r.Stats.Recomputed,
		RecomputedNames: r.Stats.RecomputedNames(),
	}
	return Summarize(m.Name, r.Analysis, r.DynInstrs), stage, secs, nil
}

// blobHandler serves GET/PUT of opaque byte artifacts (campaign logs,
// attribution snapshots) keyed by ?plan=<content hash>.
func (s *Server) blobHandler(kind string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		plan := req.URL.Query().Get("plan")
		if plan == "" {
			s.countRequest(kind, "bad_request")
			http.Error(w, "missing ?plan=<hash>", http.StatusBadRequest)
			return
		}
		t0 := time.Now()
		switch req.Method {
		case http.MethodGet:
			sp := s.startSpan("get "+kind, req)
			data, ok := s.store.Get(kind, plan)
			if !ok {
				sp.End()
				s.countRequest(kind, "miss")
				s.observeStage(kind, "miss", t0)
				http.Error(w, fmt.Sprintf("no cached %s for plan %s", kind, plan), http.StatusNotFound)
				return
			}
			s.countRequest(kind, "hit")
			s.observeStage(kind, "hit", t0)
			spanHeader(w, sp)
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(data)))
			w.Write(data)
		case http.MethodPut, http.MethodPost:
			sp := s.startSpan("put "+kind, req)
			data, err := io.ReadAll(req.Body)
			if err != nil {
				sp.End()
				s.countRequest(kind, "error")
				s.observeStage(kind, "error", t0)
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := s.store.Put(kind, plan, data); err != nil {
				sp.End()
				s.countRequest(kind, "bad_request")
				s.observeStage(kind, "bad_request", t0)
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			s.countRequest(kind, "put")
			s.observeStage(kind, "put", t0)
			spanHeader(w, sp)
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "GET or PUT only", http.StatusMethodNotAllowed)
		}
	})
}
