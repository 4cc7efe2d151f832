package alert

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// stepper drives an engine deterministically: each tick evaluates a
// fresh snapshot of reg at a fake time that only advance moves.
type stepper struct {
	e   *Engine
	reg *obs.Registry
	now time.Time
}

func newTestEngine(reg *obs.Registry) (*Engine, *stepper) {
	e := New(Config{Registry: reg})
	return e, &stepper{e: e, reg: reg, now: time.Unix(10000, 0)}
}

func (s *stepper) tick() []Transition { return s.e.Eval(s.reg.Snapshot(), s.now) }

func (s *stepper) advance(d time.Duration) { s.now = s.now.Add(d) }

func state(t *testing.T, e *Engine, rule string) State {
	t.Helper()
	for _, rv := range e.Summarize().Rules {
		if rv.Name == rule {
			return rv.State
		}
	}
	t.Fatalf("rule %q not found", rule)
	return ""
}

func TestThresholdHysteresis(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("load")
	e, clk := newTestEngine(reg)
	e.Add(Rule{
		Name:      "high_load",
		Signal:    Signal{Kind: Value, Num: []Selector{{Metric: "load"}}},
		Op:        Above,
		Threshold: 10,
		Clear:     5,
	})

	g.Set(8)
	clk.tick()
	if got := state(t, e, "high_load"); got != StateOK {
		t.Fatalf("state = %v, want ok", got)
	}
	g.Set(11)
	clk.tick()
	if got := state(t, e, "high_load"); got != StateFiring {
		t.Fatalf("state = %v, want firing (no For => immediate)", got)
	}
	// Back under threshold but inside the hysteresis band: still firing.
	g.Set(7)
	clk.tick()
	if got := state(t, e, "high_load"); got != StateFiring {
		t.Fatalf("state = %v, want firing (7 > clear 5)", got)
	}
	// Crosses the clear level: resolves.
	g.Set(4)
	clk.tick()
	if got := state(t, e, "high_load"); got != StateOK {
		t.Fatalf("state = %v, want ok after clearing", got)
	}
	sum := e.Summarize()
	if len(sum.Transitions) != 2 {
		t.Fatalf("transitions = %d, want 2 (fire + resolve): %+v", len(sum.Transitions), sum.Transitions)
	}
	if sum.Transitions[0].To != StateFiring || sum.Transitions[1].To != StateOK {
		t.Fatalf("bad transition sequence: %+v", sum.Transitions)
	}
}

func TestForDurationEdgeCases(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("v")
	e, clk := newTestEngine(reg)
	e.Add(Rule{
		Name:      "sustained",
		Signal:    Signal{Kind: Value, Num: []Selector{{Metric: "v"}}},
		Op:        Above,
		Threshold: 1,
		For:       3 * time.Second,
	})

	// Breach begins: pending, not firing.
	g.Set(2)
	clk.tick()
	if got := state(t, e, "sustained"); got != StatePending {
		t.Fatalf("state = %v, want pending", got)
	}
	// Dips back under threshold before For elapses: pending resets.
	clk.advance(2 * time.Second)
	g.Set(0)
	clk.tick()
	if got := state(t, e, "sustained"); got != StateOK {
		t.Fatalf("state = %v, want ok (breach interrupted)", got)
	}
	// Breach again; the For timer must restart from zero.
	g.Set(2)
	clk.tick()
	clk.advance(2 * time.Second)
	clk.tick()
	if got := state(t, e, "sustained"); got != StatePending {
		t.Fatalf("state = %v, want pending (only 2s into new breach)", got)
	}
	clk.advance(time.Second)
	clk.tick()
	if got := state(t, e, "sustained"); got != StateFiring {
		t.Fatalf("state = %v, want firing (held 3s)", got)
	}
	if firing := e.Firing(); len(firing) != 1 || firing[0] != "sustained" {
		t.Fatalf("Firing() = %v", firing)
	}
}

func TestDeltaStallAndGate(t *testing.T) {
	reg := obs.NewRegistry()
	executed := reg.Counter("epvf_campaign_runs_executed_total", "id", "x")
	active := reg.Gauge("epvf_campaign_active")
	e, clk := newTestEngine(reg)
	e.Add(CampaignStall(5 * time.Second))

	// No campaign active: gate holds the rule inactive forever.
	for i := 0; i < 10; i++ {
		clk.tick()
		clk.advance(time.Second)
	}
	if got := state(t, e, "campaign_stall"); got != StateOK {
		t.Fatalf("state = %v, want ok while gated", got)
	}

	// Campaign starts and makes progress: no stall.
	active.Set(1)
	for i := 0; i < 8; i++ {
		executed.Inc()
		clk.tick()
		clk.advance(time.Second)
	}
	if got := state(t, e, "campaign_stall"); got != StateOK {
		t.Fatalf("state = %v, want ok while progressing", got)
	}

	// Progress stops: once the 5s window shows zero delta, it fires.
	for i := 0; i < 6; i++ {
		clk.tick()
		clk.advance(time.Second)
	}
	if got := state(t, e, "campaign_stall"); got != StateFiring {
		t.Fatalf("state = %v, want firing after stall window", got)
	}

	// Progress resumes: delta >= clear resolves the alert.
	for i := 0; i < 6; i++ {
		executed.Inc()
		clk.tick()
		clk.advance(time.Second)
	}
	if got := state(t, e, "campaign_stall"); got != StateOK {
		t.Fatalf("state = %v, want ok after recovery", got)
	}

	// Stall again, then end the campaign while firing: gate resolves it.
	for i := 0; i < 7; i++ {
		clk.tick()
		clk.advance(time.Second)
	}
	if got := state(t, e, "campaign_stall"); got != StateFiring {
		t.Fatalf("state = %v, want firing before gate drop", got)
	}
	active.Set(0)
	clk.tick()
	if got := state(t, e, "campaign_stall"); got != StateOK {
		t.Fatalf("state = %v, want ok once campaign ends", got)
	}
}

func TestRatioMinDenom(t *testing.T) {
	reg := obs.NewRegistry()
	e, clk := newTestEngine(reg)
	e.Add(SDCSpike(0.05))

	sdc := reg.Counter("epvf_campaign_runs_total", "id", "x", "outcome", "sdc")
	ok := reg.Counter("epvf_campaign_runs_total", "id", "x", "outcome", "masked")

	// 50% SDC but only 10 runs: MinDenom suppresses the rule.
	sdc.Add(5)
	ok.Add(5)
	clk.tick()
	if got := state(t, e, "sdc_rate_spike"); got != StateOK {
		t.Fatalf("state = %v, want ok under MinDenom", got)
	}
	// 200 runs at 50% SDC >> 2x the 5% prediction: fires.
	sdc.Add(95)
	ok.Add(95)
	clk.tick()
	if got := state(t, e, "sdc_rate_spike"); got != StateFiring {
		t.Fatalf("state = %v, want firing on SDC spike", got)
	}
}

func TestQuantileRule(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("epvf_injection_latency_seconds", obs.LatencyBuckets, "id", "x")
	e, clk := newTestEngine(reg)
	e.Add(InjectionP99())

	// 100 fast observations: p99 well under the limit.
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	clk.tick()
	if got := state(t, e, "injection_p99_latency"); got != StateOK {
		t.Fatalf("state = %v, want ok with fast injections", got)
	}
	// Shift the tail: 100 slow observations push p99 over 250ms.
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	clk.tick()
	if got := state(t, e, "injection_p99_latency"); got != StateFiring {
		t.Fatalf("state = %v, want firing on slow tail", got)
	}
}

// memSink collects profile bundles in memory.
type memSink struct {
	mu   sync.Mutex
	got  map[string][]byte
	done chan struct{}
}

func (s *memSink) Put(kind, key string, data []byte) error {
	s.mu.Lock()
	if s.got == nil {
		s.got = map[string][]byte{}
	}
	s.got[kind+"/"+key] = data
	s.mu.Unlock()
	select {
	case s.done <- struct{}{}:
	default:
	}
	return nil
}

func TestProfileCaptureOnFire(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("v")
	sink := &memSink{done: make(chan struct{}, 1)}
	e := New(Config{Registry: reg, Profile: sink})
	clk := &stepper{e: e, reg: reg, now: time.Unix(20000, 0)}
	e.Add(Rule{
		Name:      "Spike Rule!",
		Signal:    Signal{Kind: Value, Num: []Selector{{Metric: "v"}}},
		Op:        Above,
		Threshold: 1,
	})

	g.Set(5)
	clk.tick()
	select {
	case <-sink.done:
	case <-time.After(5 * time.Second):
		t.Fatal("profile bundle never stored")
	}

	wantKey := ProfileKey("Spike Rule!", clk.now)
	if strings.ContainsAny(wantKey, " !ABCDEFGHIJKLMNOPQRSTUVWXYZ") {
		t.Fatalf("unsanitized key %q", wantKey)
	}
	sink.mu.Lock()
	data := sink.got[ProfileKind+"/"+wantKey]
	sink.mu.Unlock()
	if data == nil {
		t.Fatalf("bundle missing under %s/%s; have %v", ProfileKind, wantKey, keys(sink))
	}
	var bundle ProfileBundle
	if err := json.Unmarshal(data, &bundle); err != nil {
		t.Fatal(err)
	}
	if bundle.Rule != "Spike Rule!" || bundle.Value != 5 {
		t.Fatalf("bad bundle meta: %+v", bundle)
	}
	if len(bundle.CPUProfile) == 0 || len(bundle.HeapProfile) == 0 {
		t.Fatalf("bundle missing profiles: cpu=%d heap=%d", len(bundle.CPUProfile), len(bundle.HeapProfile))
	}
	// The transition in the ring carries the same key.
	sum := e.Summarize()
	if len(sum.Transitions) == 0 || sum.Transitions[0].Profile != wantKey {
		t.Fatalf("transition missing profile key: %+v", sum.Transitions)
	}
}

func keys(s *memSink) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k := range s.got {
		out = append(out, k)
	}
	return out
}

func TestTransitionRingBounded(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("v")
	e := New(Config{Registry: reg})
	clk := &stepper{e: e, reg: reg, now: time.Unix(0, 0)}
	e.Add(Rule{Name: "flap", Signal: Signal{Kind: Value, Num: []Selector{{Metric: "v"}}},
		Op: Above, Threshold: 1})
	const flaps = RingCap/2 + 5
	for i := 0; i < flaps; i++ {
		g.Set(5)
		clk.tick()
		g.Set(0)
		clk.tick()
		clk.advance(time.Second)
	}
	sum := e.Summarize()
	if len(sum.Transitions) != RingCap {
		t.Fatalf("ring = %d entries, want cap %d", len(sum.Transitions), RingCap)
	}
	// Oldest-first: entries must be in non-decreasing time order.
	for i := 1; i < len(sum.Transitions); i++ {
		if sum.Transitions[i].At.Before(sum.Transitions[i-1].At) {
			t.Fatalf("ring out of order: %+v", sum.Transitions)
		}
	}
	if fired := reg.Snapshot().Counter("epvf_obs_alerts_fired_total", "rule", "flap"); fired != flaps {
		t.Fatalf("fired counter = %d, want %d", fired, flaps)
	}
}

func TestAlertsHTTPAndNotify(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("v")
	e, clk := newTestEngine(reg)
	e.Add(Rule{Name: "r", Signal: Signal{Kind: Value, Num: []Selector{{Metric: "v"}}},
		Op: Above, Threshold: 1})
	g.Set(2)
	notified := clk.tick()

	rr := httptest.NewRecorder()
	e.ServeHTTP(rr, httptest.NewRequest("GET", "/alerts", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), `"firing"`) {
		t.Fatalf("bad /alerts: %d %s", rr.Code, rr.Body.String())
	}
	if len(notified) != 1 || notified[0].To != StateFiring {
		t.Fatalf("notify = %+v", notified)
	}
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	if e.Eval(nil, time.Time{}) != nil {
		t.Fatal("nil engine should make no transitions")
	}
	e.Add(Rule{})
	if e.Summarize() != nil || e.Firing() != nil {
		t.Fatal("nil engine views should be nil")
	}
}
