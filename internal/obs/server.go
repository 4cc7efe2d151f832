package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Server is the opt-in live-introspection endpoint: /metrics (Prometheus
// text, or JSON with ?format=json), /healthz (liveness plus registered
// stats sections), /debug/pprof/*, /debug/vars (expvar) and any JSON
// status views registered with HandleJSON (the campaign engine registers
// /campaign).
type Server struct {
	reg     *Registry
	mux     *http.ServeMux
	ln      net.Listener
	srv     *http.Server
	started time.Time

	healthMu sync.Mutex
	health   []section
	vars     []section
	degraded func() []string
}

// section is one named stats provider on /healthz (e.g. "cache" →
// cache.Stats, "fleet" → coordinator status) or /debug/vars (e.g.
// "epvf_ts" → the dashboard's time-series summary).
type section struct {
	name string
	fn   func() any
}

// NewServer binds addr (host:port; :0 picks a free port) and builds the
// route table, but does not serve until Start.
func NewServer(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{reg: reg, mux: http.NewServeMux(), ln: ln, started: time.Now()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.HandleFunc("/debug/vars", s.handleVars)
	s.mux.HandleFunc("/", s.handleIndex)
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	return s, nil
}

// Addr returns the bound address (useful with :0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// HandleJSON registers a view that renders fn's value as JSON on every
// request.
func (s *Server) HandleJSON(path string, fn func() (any, error)) {
	s.mux.HandleFunc(path, func(w http.ResponseWriter, req *http.Request) {
		v, err := fn()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	})
}

// Handle registers an arbitrary handler (e.g. the /attr drill-down
// endpoint, which needs request access for its query parameters —
// HandleJSON deliberately hides the request).
func (s *Server) Handle(path string, h http.Handler) {
	s.mux.Handle(path, h)
}

// AddHealth attaches a named stats section to /healthz: fn's value is
// rendered under that key on every health probe (e.g. cache hit/byte
// stats, coordinator fleet state). Safe to call before or after Start.
func (s *Server) AddHealth(name string, fn func() any) {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	s.health = append(s.health, section{name: name, fn: fn})
}

// AddVars attaches a named section to this server's /debug/vars: fn's
// value is rendered as JSON under that key on every request, next to the
// server's registry (the dashboard adds its epvf_ts and epvf_alerts
// sections here). Safe to call before or after Start.
func (s *Server) AddVars(name string, fn func() any) {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	s.vars = append(s.vars, section{name: name, fn: fn})
}

// SetDegraded installs the degradation probe: when fn returns a
// non-empty list (the names of firing alert rules), /healthz reports
// status "degraded" and the list instead of flat "ok". The dashboard
// wires the alert engine in here.
func (s *Server) SetDegraded(fn func() []string) {
	s.healthMu.Lock()
	s.degraded = fn
	s.healthMu.Unlock()
}

// handleHealth is the liveness endpoint: a process that answers it is up,
// and the payload carries uptime plus every registered stats section —
// the cache and fleet state a load balancer or operator needs before
// routing traffic at a daemon.
func (s *Server) handleHealth(w http.ResponseWriter, req *http.Request) {
	body := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
	}
	s.healthMu.Lock()
	sections := append([]section(nil), s.health...)
	degraded := s.degraded
	s.healthMu.Unlock()
	if degraded != nil {
		if firing := degraded(); len(firing) > 0 {
			body["status"] = "degraded"
			body["firing"] = firing
		}
	}
	for _, sec := range sections {
		body[sec.name] = sec.fn()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

// Start serves in a background goroutine until Close or Shutdown.
func (s *Server) Start() {
	go s.srv.Serve(s.ln)
}

// Close shuts the listener down immediately, aborting in-flight requests.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown drains gracefully: the listener stops accepting, in-flight
// requests (a /metrics scrape, a pprof profile) run to completion, and
// only then does the server stop — or ctx expires, whichever is first.
// CLIs use it so a drain never truncates a scrape mid-body.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.srv.Shutdown(ctx)
}

// handleVars serves the process's published expvars, as
// expvar.Handler does, plus this server's registry samples under
// epvf_obs and its AddVars sections: every server shows its own
// registry and sections, not whichever were published first.
func (s *Server) handleVars(w http.ResponseWriter, req *http.Request) {
	s.healthMu.Lock()
	sections := append([]section{{"epvf_obs", func() any { return s.reg.Snapshot().Samples }}}, s.vars...)
	s.healthMu.Unlock()
	values := make([][]byte, len(sections))
	for i, sec := range sections {
		v, err := json.Marshal(sec.fn())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		values[i] = v
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	for i, sec := range sections {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(w, "%s\n%q: %s", sep, sec.name, values[i])
	}
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(w, ",\n%q: %s", kv.Key, kv.Value)
	})
	fmt.Fprintf(w, "\n}\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		s.reg.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func (s *Server) handleIndex(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path != "/" {
		http.NotFound(w, req)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "epvf observability endpoint")
	fmt.Fprintln(w, "  /metrics            Prometheus text format (?format=json for JSON)")
	fmt.Fprintln(w, "  /healthz            liveness + registered stats sections (cache, fleet)")
	fmt.Fprintln(w, "  /campaign           live campaign status (when a campaign is running)")
	fmt.Fprintln(w, "  /attr               attribution drill-down (when the ledger is enabled; ?func=, ?instr=, ?format=text)")
	fmt.Fprintln(w, "  /dashboard          live HTML dashboard (when telemetry is mounted)")
	fmt.Fprintln(w, "  /ts                 metric time-series rings (?res=1s|10s|60s, ?prefix=)")
	fmt.Fprintln(w, "  /events             SSE stream: metrics, campaign, fleet, span, alert events")
	fmt.Fprintln(w, "  /alerts             alert rule states + transition log")
	fmt.Fprintln(w, "  /debug/flight       flight recorder: the owner's tracer's recent spans (?format=text)")
	fmt.Fprintln(w, "  /debug/pprof/       CPU, heap, goroutine profiles")
	fmt.Fprintln(w, "  /debug/vars         expvar (includes the epvf_obs snapshot)")
}
