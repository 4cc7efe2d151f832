package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/attr"
	"repro/internal/campaign"
	"repro/internal/fi"
	"repro/internal/obs"
)

// DefaultLeaseTTL is the lease lifetime when CoordinatorConfig leaves it
// zero: long enough that a worker chewing a large shard heartbeats
// comfortably at TTL/3, short enough that a crashed worker's shard
// requeues quickly.
const DefaultLeaseTTL = 30 * time.Second

// defaultPollWait is the backoff hint handed to workers when every
// remaining shard is leased.
const defaultPollWait = 500 * time.Millisecond

// CoordinatorConfig describes one distributed campaign.
type CoordinatorConfig struct {
	// Plan is the shard plan being distributed.
	Plan *campaign.Plan
	// LogPath, when non-empty, makes the merge durable: completed shards
	// append to a standard campaign JSONL log, and a restarted
	// coordinator resumes with those shards already done. Empty keeps the
	// merge in memory only.
	LogPath string
	// LeaseTTL bounds how long a silent worker holds a shard; zero means
	// DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Registry receives fleet metrics (labeled id=<plan ID>); nil
	// disables them.
	Registry *obs.Registry
	// Ledger, when non-nil, accumulates prediction-vs-ground-truth
	// attribution: each merged shard's records are classified into a
	// per-shard snapshot and absorbed exactly once (duplicate deliveries
	// are dropped before absorption, so requeue/redelivery never
	// double-counts). Workers carrying a classifier also send their own
	// ledger hash, which must match ours — classifier skew is rejected as
	// loudly as record skew.
	Ledger *attr.Ledger
	// Tracer, when non-nil, correlates the coordinator into the
	// campaign's distributed trace: a deterministic root span for the
	// campaign, a "merge shard N" span per first delivery (parented under
	// the worker's shard span via the Traceparent request header), and
	// ingestion of worker-shipped span subtrees from PathSpans. Nil
	// disables tracing; span subtrees shipped by workers are still
	// deduplicated and persisted to the durable log so `campaign trace`
	// works on the merged log either way.
	Tracer *obs.Tracer
	// Clock overrides time.Now for tests.
	Clock func() time.Time
	// Publish, when non-nil, receives throttled ("fleet", Status) events
	// for the live SSE stream; it must never block (the ts.Hub publish
	// path is non-blocking by construction).
	Publish func(event string, v any)
}

// Coordinator owns the plan, the lease table and the merge. It is an
// http.Handler; Start binds a listener around it.
type Coordinator struct {
	cfg   CoordinatorConfig
	table *table
	mux   *http.ServeMux

	mu      sync.Mutex
	records map[int64]fi.Record
	log     *campaign.DurableLog
	workers map[string]int64 // name → shards delivered first
	dups    int64
	closed  bool
	spanIDs map[string]bool // span IDs already merged (replayed + live)
	root    *obs.Span       // campaign root span (nil when Tracer is nil)
	rootEnd sync.Once

	doneOnce sync.Once
	doneCh   chan struct{}

	fleetMu      sync.Mutex
	lastFleetPub time.Time

	ln  net.Listener
	srv *http.Server
}

// NewCoordinator builds the coordinator, replaying cfg.LogPath (if any)
// so already-merged shards are marked done before the first worker
// arrives.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("dist: coordinator needs a plan")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	c := &Coordinator{
		cfg:     cfg,
		table:   newTable(cfg.Plan, cfg.LeaseTTL, cfg.Clock),
		records: make(map[int64]fi.Record),
		workers: make(map[string]int64),
		spanIDs: make(map[string]bool),
		doneCh:  make(chan struct{}),
	}
	if cfg.LogPath != "" {
		log, d, err := campaign.OpenDurableLog(cfg.LogPath, cfg.Plan)
		if err != nil {
			return nil, err
		}
		c.log = log
		// Replayed spans keep the dedup set restart-safe: a worker
		// redelivering a subtree the previous coordinator incarnation
		// already logged is dropped as a duplicate, not logged twice.
		for _, sp := range d.Spans {
			if sp.SpanID != "" {
				c.spanIDs[sp.TraceID+"/"+sp.SpanID] = true
			}
		}
		for _, shard := range d.CompleteShards() {
			lo, hi := cfg.Plan.ShardRange(shard)
			recs := make([]campaign.RunRec, 0, hi-lo)
			for idx := lo; idx < hi; idx++ {
				rec := d.Records[idx]
				c.records[idx] = rec
				recs = append(recs, campaign.NewRunRec(idx, rec))
			}
			c.table.markDone(shard, campaign.ShardHash(cfg.Plan.ID, shard, recs))
		}
		if cfg.Ledger != nil && len(c.records) > 0 {
			// Seed the ledger from the replayed shards so a restarted
			// coordinator's attribution matches an uninterrupted run.
			recs := make([]fi.Record, 0, len(c.records))
			for _, rec := range c.records {
				recs = append(recs, rec)
			}
			cfg.Ledger.Absorb(attr.Collect(cfg.Ledger.Classifier(), recs))
		}
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("GET "+PathPlan, c.handlePlan)
	c.mux.HandleFunc("POST "+PathRegister, c.handleRegister)
	c.mux.HandleFunc("POST "+PathLease, c.handleLease)
	c.mux.HandleFunc("POST "+PathHeartbeat, c.handleHeartbeat)
	c.mux.HandleFunc("POST "+PathResults, c.handleResults)
	c.mux.HandleFunc("POST "+PathSpans, c.handleSpans)
	c.mux.HandleFunc("GET "+PathStatus, c.handleStatus)
	// The coordinator owns the campaign's deterministic root span. Every
	// process derives the same identity from the plan, so worker shard
	// spans parent under it without negotiation.
	if cfg.Tracer != nil {
		c.root = cfg.Tracer.StartExact("campaign "+cfg.Plan.Benchmark, campaign.TraceContext(cfg.Plan.ID), "")
	}
	if c.table.done() {
		c.doneOnce.Do(func() { close(c.doneCh) })
		c.finishRoot()
	}
	c.syncMetrics()
	return c, nil
}

// ServeHTTP implements http.Handler (useful under httptest).
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// Start binds addr (host:port; :0 picks a free port) and serves in a
// background goroutine until Shutdown.
func (c *Coordinator) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	c.ln = ln
	c.srv = &http.Server{Handler: c, ReadHeaderTimeout: 5 * time.Second}
	go c.srv.Serve(ln)
	return nil
}

// Addr returns the bound address (after Start).
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Done is closed once every shard has been merged.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Wait blocks until the campaign completes or ctx is cancelled. While
// waiting it sweeps the lease table periodically so crashed workers'
// shards requeue even when no healthy worker is currently talking to us.
func (c *Coordinator) Wait(ctx context.Context) error {
	tick := time.NewTicker(c.cfg.LeaseTTL / 2)
	defer tick.Stop()
	for {
		select {
		case <-c.doneCh:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			c.table.sweep()
			c.syncMetrics()
		}
	}
}

// Result assembles the merged campaign result. It errors until the
// campaign is complete; completeness plus per-index determinism make the
// result bit-identical to a single-process run of the same plan.
func (c *Coordinator) Result() (*campaign.Result, error) {
	if !c.table.done() {
		return nil, fmt.Errorf("dist: campaign %s incomplete", c.cfg.Plan.ID)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return campaign.Assemble(c.cfg.Plan, c.records), nil
}

// finishRoot ends the campaign root span (once) and persists it, so the
// merged log's trace has its campaign-wide root even across restarts —
// the root's span ID is deterministic, so replay dedup keeps exactly one.
func (c *Coordinator) finishRoot() {
	if c.root == nil {
		return
	}
	c.rootEnd.Do(func() {
		rec := c.root.EndRecord()
		c.mergeSpans([]obs.SpanRecord{rec}, false)
	})
}

// mergeSpans filters a span batch against the seen-ID set, persists the
// fresh remainder to the durable log, and (optionally) ingests it into
// the tracer. It returns how many spans were new. ingest is false for
// spans the tracer already saw locally (our own root span's End already
// recorded it).
func (c *Coordinator) mergeSpans(spans []obs.SpanRecord, ingest bool) int {
	fresh := make([]obs.SpanRecord, 0, len(spans))
	c.mu.Lock()
	for _, sp := range spans {
		if sp.SpanID == "" {
			continue
		}
		key := sp.TraceID + "/" + sp.SpanID
		if c.spanIDs[key] {
			continue
		}
		c.spanIDs[key] = true
		fresh = append(fresh, sp)
	}
	var logErr error
	if len(fresh) > 0 && c.log != nil && !c.closed {
		logErr = c.log.AppendSpans(fresh)
	}
	c.mu.Unlock()
	if logErr != nil && c.cfg.Registry != nil {
		c.cfg.Registry.Counter("epvf_dist_span_log_errors_total", "id", c.cfg.Plan.ID).Inc()
	}
	if ingest && len(fresh) > 0 && c.cfg.Tracer != nil {
		c.cfg.Tracer.Ingest(fresh...)
	}
	return len(fresh)
}

// Shutdown drains the HTTP server and closes the durable log.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.finishRoot()
	var err error
	if c.srv != nil {
		err = c.srv.Shutdown(ctx)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log != nil && !c.closed {
		c.closed = true
		if cerr := c.log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Ledger returns the attribution ledger the coordinator absorbs shard
// snapshots into (nil when attribution is disabled).
func (c *Coordinator) Ledger() *attr.Ledger { return c.cfg.Ledger }

// Status snapshots the fleet state.
func (c *Coordinator) Status() Status {
	pending, leased, done, requeued, _ := c.table.counts()
	byWorker := c.table.workerLeases()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Status{
		Plan:           c.cfg.Plan,
		NumShards:      c.cfg.Plan.NumShards(),
		ShardsPending:  pending,
		ShardsLeased:   leased,
		ShardsDone:     done,
		ShardsRequeued: requeued,
		RunsMerged:     int64(len(c.records)),
		DupDeliveries:  c.dups,
		Done:           pending == 0 && leased == 0,
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ws := byWorker[name]
		ws.Name = name
		ws.ShardsDone = c.workers[name]
		s.Workers = append(s.Workers, ws)
	}
	return s
}

// syncMetrics publishes the fleet state into the obs registry.
func (c *Coordinator) syncMetrics() {
	reg := c.cfg.Registry
	if reg == nil {
		return
	}
	id := c.cfg.Plan.ID
	pending, leased, done, requeued, oldestBeat := c.table.counts()
	reg.Gauge("epvf_dist_shards_pending", "id", id).Set(float64(pending))
	reg.Gauge("epvf_dist_leases_active", "id", id).Set(float64(leased))
	reg.Gauge("epvf_dist_shards_done", "id", id).Set(float64(done))
	reg.Gauge("epvf_dist_shards_requeued", "id", id).Set(float64(requeued))
	reg.Gauge("epvf_dist_heartbeat_age_seconds", "id", id).Set(oldestBeat.Seconds())
	c.mu.Lock()
	workers, runs, dups := len(c.workers), int64(len(c.records)), c.dups
	c.mu.Unlock()
	reg.Gauge("epvf_dist_workers", "id", id).Set(float64(workers))
	reg.Gauge("epvf_dist_runs_merged", "id", id).Set(float64(runs))
	reg.Gauge("epvf_dist_duplicate_deliveries", "id", id).Set(float64(dups))
	c.publishFleet()
}

// fleetPublishEvery throttles live fleet events onto the SSE stream.
const fleetPublishEvery = time.Second

// publishFleet emits a throttled ("fleet", Status) event to the
// configured publisher (the SSE hub).
func (c *Coordinator) publishFleet() {
	if c.cfg.Publish == nil {
		return
	}
	now := time.Now()
	if c.cfg.Clock != nil {
		now = c.cfg.Clock()
	}
	c.fleetMu.Lock()
	if now.Sub(c.lastFleetPub) < fleetPublishEvery {
		c.fleetMu.Unlock()
		return
	}
	c.lastFleetPub = now
	c.fleetMu.Unlock()
	c.cfg.Publish("fleet", c.Status())
}

func (c *Coordinator) handlePlan(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.cfg.Plan)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.PlanID != c.cfg.Plan.ID {
		http.Error(w, fmt.Sprintf("plan mismatch: coordinator serves %s, worker %q computed %s (module, binary or config skew)",
			c.cfg.Plan.ID, req.Worker, req.PlanID), http.StatusConflict)
		return
	}
	c.mu.Lock()
	if _, ok := c.workers[req.Worker]; !ok {
		c.workers[req.Worker] = 0
	}
	c.mu.Unlock()
	c.syncMetrics()
	writeJSON(w, RegisterResponse{OK: true, LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds()})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.PlanID != c.cfg.Plan.ID {
		http.Error(w, fmt.Sprintf("plan mismatch: coordinator serves %s, got %s", c.cfg.Plan.ID, req.PlanID), http.StatusConflict)
		return
	}
	l, done := c.table.acquire(req.Worker)
	defer c.syncMetrics()
	if done {
		writeJSON(w, LeaseResponse{Done: true})
		return
	}
	if l == nil {
		writeJSON(w, LeaseResponse{WaitMillis: defaultPollWait.Milliseconds()})
		return
	}
	lo, hi := c.cfg.Plan.ShardRange(l.shard)
	writeJSON(w, LeaseResponse{
		Shard: l.shard, Lo: lo, Hi: hi,
		Lease: l.id, TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := c.table.heartbeat(req.Lease); err != nil {
		http.Error(w, err.Error(), http.StatusGone)
		return
	}
	c.syncMetrics()
	writeJSON(w, map[string]bool{"ok": true})
}

func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if got := q.Get("plan"); got != c.cfg.Plan.ID {
		http.Error(w, fmt.Sprintf("plan mismatch: coordinator serves %s, got %q", c.cfg.Plan.ID, got), http.StatusConflict)
		return
	}
	shard, err := strconv.Atoi(q.Get("shard"))
	if err != nil || shard < 0 || shard >= c.cfg.Plan.NumShards() {
		http.Error(w, fmt.Sprintf("bad shard %q", q.Get("shard")), http.StatusBadRequest)
		return
	}
	worker, claimed := q.Get("worker"), q.Get("hash")
	lo, hi := c.cfg.Plan.ShardRange(shard)

	// The body is JSONL: one RunRec per line, exactly the shard's indices.
	dec := json.NewDecoder(r.Body)
	recs := make([]campaign.RunRec, 0, hi-lo)
	seen := make(map[int64]bool, hi-lo)
	for dec.More() {
		var rec campaign.RunRec
		if err := dec.Decode(&rec); err != nil {
			http.Error(w, fmt.Sprintf("malformed result stream: %v", err), http.StatusBadRequest)
			return
		}
		if rec.Index < lo || rec.Index >= hi {
			http.Error(w, fmt.Sprintf("run %d outside shard %d range [%d, %d)", rec.Index, shard, lo, hi), http.StatusBadRequest)
			return
		}
		if seen[rec.Index] {
			http.Error(w, fmt.Sprintf("run %d delivered twice in one shard", rec.Index), http.StatusBadRequest)
			return
		}
		// The durable log's replay applies the same rule, so a record it
		// would refuse never reaches the log.
		if err := rec.Check(c.cfg.Plan); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		seen[rec.Index] = true
		recs = append(recs, rec)
	}
	if int64(len(recs)) != hi-lo {
		http.Error(w, fmt.Sprintf("shard %d delivered %d/%d runs", shard, len(recs), hi-lo), http.StatusBadRequest)
		return
	}
	// The content hash is the idempotency token and the stale-worker gate:
	// it binds the records to *our* plan ID, so a worker computing against
	// any other plan cannot produce a matching claim.
	hash := campaign.ShardHash(c.cfg.Plan.ID, shard, recs)
	if claimed != hash {
		http.Error(w, fmt.Sprintf("shard %d content hash %s does not match claimed %q", shard, hash, claimed), http.StatusConflict)
		return
	}
	// The attribution contribution is classified here, from the verified
	// records, regardless of who computed it first: a worker that also
	// carries the classifier sends its own ledger hash (lhash), and a
	// mismatch means model/classifier skew — rejected before the shard can
	// complete, like any other divergence.
	var lsnap *attr.Snapshot
	if c.cfg.Ledger != nil {
		frecs := make([]fi.Record, len(recs))
		for i, rr := range recs {
			frecs[i] = rr.Record()
		}
		lsnap = attr.Collect(c.cfg.Ledger.Classifier(), frecs)
		if claimedL := q.Get("lhash"); claimedL != "" && claimedL != lsnap.Hash() {
			http.Error(w, fmt.Sprintf("shard %d ledger hash %s does not match claimed %q (classifier skew?)",
				shard, lsnap.Hash(), claimedL), http.StatusConflict)
			return
		}
	}

	// The merge span parents under the worker's shard span (carried in
	// the Traceparent header), so the cross-process tree reads
	// campaign → shard N (worker) → merge shard N (coordinator). A
	// delivery without the header still lands in the right trace, parented
	// directly under the deterministic campaign root.
	var msp *obs.Span
	if c.cfg.Tracer != nil {
		pctx, ok := obs.ExtractTraceHeader(r.Header)
		if !ok {
			pctx = campaign.TraceContext(c.cfg.Plan.ID)
		}
		msp = c.cfg.Tracer.StartRemote(fmt.Sprintf("merge shard %d", shard), pctx)
	}

	dup, err := c.table.complete(shard, hash)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	defer c.syncMetrics()
	if dup {
		c.mu.Lock()
		c.dups++
		c.mu.Unlock()
		msp.End()
		writeJSON(w, ResultResponse{Merged: false, Duplicate: true, Done: c.table.done()})
		return
	}
	// Absorb only on the non-duplicate path: a requeued shard redelivered
	// by two workers contributes to the ledger exactly once.
	c.cfg.Ledger.Absorb(lsnap)
	c.mu.Lock()
	for _, rec := range recs {
		c.records[rec.Index] = rec.Record()
	}
	c.workers[worker]++
	var logErr error
	if c.log != nil && !c.closed {
		logErr = c.log.AppendShard(shard, recs)
	}
	c.mu.Unlock()
	if logErr != nil {
		http.Error(w, fmt.Sprintf("durable log: %v", logErr), http.StatusInternalServerError)
		return
	}
	if reg := c.cfg.Registry; reg != nil {
		reg.Counter("epvf_dist_shards_merged_total", "id", c.cfg.Plan.ID).Inc()
		reg.Counter("epvf_dist_runs_merged_total", "id", c.cfg.Plan.ID).Add(int64(len(recs)))
	}
	if msp != nil {
		// First delivery: the merge span joins the durable trace. (Its ID
		// is random, but it only exists on this non-duplicate path, so
		// requeue cannot double-log it.)
		c.mergeSpans([]obs.SpanRecord{msp.EndRecord()}, false)
	}
	done := c.table.done()
	if done {
		c.doneOnce.Do(func() { close(c.doneCh) })
		c.finishRoot()
		if c.cfg.Ledger != nil {
			// Cache the final attribution snapshot in the durable log so
			// `campaign attr` works on the merged log without the module.
			c.mu.Lock()
			if c.log != nil && !c.closed {
				if err := c.log.AppendAttr(c.cfg.Ledger.Snapshot()); err != nil {
					logErr = err
				}
			}
			c.mu.Unlock()
			if logErr != nil {
				http.Error(w, fmt.Sprintf("durable log: %v", logErr), http.StatusInternalServerError)
				return
			}
		}
	}
	writeJSON(w, ResultResponse{Merged: true, Done: done})
}

// handleSpans accepts a worker's span subtree (JSON array of
// obs.SpanRecord). Span IDs are deterministic, so the batch is filtered
// against everything already merged or replayed; a fully-known batch is
// acknowledged as a duplicate, mirroring the ShardHash record dedup. A
// span too large for the durable log is refused with 400.
func (c *Coordinator) handleSpans(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if got := q.Get("plan"); got != c.cfg.Plan.ID {
		http.Error(w, fmt.Sprintf("plan mismatch: coordinator serves %s, got %q", c.cfg.Plan.ID, got), http.StatusConflict)
		return
	}
	var spans []obs.SpanRecord
	if !readJSON(w, r, &spans) {
		return
	}
	if len(spans) == 0 {
		http.Error(w, "empty span batch", http.StatusBadRequest)
		return
	}
	if err := campaign.CheckSpans(spans); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fresh := c.mergeSpans(spans, true)
	if reg := c.cfg.Registry; reg != nil {
		reg.Counter("epvf_dist_spans_merged_total", "id", c.cfg.Plan.ID).Add(int64(fresh))
		if fresh == 0 {
			reg.Counter("epvf_dist_spans_duplicate_total", "id", c.cfg.Plan.ID).Inc()
		}
	}
	writeJSON(w, SpansResponse{Merged: fresh > 0, Duplicate: fresh == 0})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.Status())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}
