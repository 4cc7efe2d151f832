// Package alert is a declarative alert engine over the obs metrics
// registry: rules select a signal (current value, windowed delta,
// ratio of two selections, or a histogram quantile), compare it
// against a threshold with hysteresis (a separate clear level) and a
// for-duration (the breach must hold continuously before firing), and
// every state transition is logged to a bounded ring, surfaced on
// /alerts, streamed over SSE, degrades /healthz, and — on firing —
// triggers capture of a CPU+heap pprof bundle into the result cache so
// post-mortems carry the evidence.
//
// The engine evaluates the registry snapshots its caller hands to Eval
// (the dashboard's one sampling tick); nothing in here touches
// instrumented hot paths. A nil *Engine no-ops everywhere.
package alert

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Op compares a signal value against a rule threshold.
type Op string

const (
	Above Op = "above"
	Below Op = "below"
)

// breached reports whether v violates the threshold under op.
func (op Op) breached(v, threshold float64) bool {
	if op == Below {
		return v < threshold
	}
	return v > threshold
}

// cleared reports whether v is back on the safe side of the clear
// level (the hysteresis band: a firing rule resolves only once the
// value crosses clear, not threshold).
func (op Op) cleared(v, clear float64) bool {
	if op == Below {
		return v >= clear
	}
	return v <= clear
}

// Selector names a metric family plus label pairs (k, v, k, v...);
// every matching series is summed.
type Selector struct {
	Metric string   `json:"metric"`
	Labels []string `json:"labels,omitempty"`
}

// SignalKind says how a rule's value is computed from snapshots.
type SignalKind string

const (
	// Value is the current sum of the Num selection.
	Value SignalKind = "value"
	// Delta is the absolute change of the Num selection over Window —
	// Delta Below 1 is the idiom for stall/absence detection.
	Delta SignalKind = "delta"
	// Ratio is Num / Den (Den summed over its selectors too); rules can
	// demand MinDenom observations before the ratio is trusted.
	Ratio SignalKind = "ratio"
	// Quantile is the q-quantile interpolated from the cumulative
	// histogram buckets of the Num selection.
	Quantile SignalKind = "quantile"
)

// Signal describes the measured quantity of a rule.
type Signal struct {
	Kind   SignalKind    `json:"kind"`
	Num    []Selector    `json:"num"`
	Den    []Selector    `json:"den,omitempty"`
	Q      float64       `json:"q,omitempty"`
	Window time.Duration `json:"window,omitempty"`
}

// Cond gates a rule: while the condition does not hold the rule is
// inactive (a stall rule only makes sense while work is in flight).
type Cond struct {
	Signal    Signal  `json:"signal"`
	Op        Op      `json:"op"`
	Threshold float64 `json:"threshold"`
}

// Rule is one declarative alert.
type Rule struct {
	Name      string  `json:"name"`
	Desc      string  `json:"desc,omitempty"`
	Signal    Signal  `json:"signal"`
	Op        Op      `json:"op"`
	Threshold float64 `json:"threshold"`
	// Clear is the hysteresis level the value must re-cross before a
	// firing rule resolves; zero means Threshold (no hysteresis band).
	Clear float64 `json:"clear,omitempty"`
	// For is how long the breach must hold continuously before the rule
	// fires; zero fires on the first breaching evaluation.
	For time.Duration `json:"for,omitempty"`
	// ActiveWhen gates the rule; nil means always active.
	ActiveWhen *Cond `json:"active_when,omitempty"`
	// MinDenom suppresses Ratio/Quantile rules until the denominator
	// (total observations) reaches this floor.
	MinDenom float64 `json:"min_denom,omitempty"`
}

// State is a rule's position in the OK -> pending -> firing machine.
type State string

const (
	StateOK      State = "ok"
	StatePending State = "pending"
	StateFiring  State = "firing"
)

// Transition is one logged state change.
type Transition struct {
	Rule  string    `json:"rule"`
	From  State     `json:"from"`
	To    State     `json:"to"`
	At    time.Time `json:"at"`
	Value float64   `json:"value"`
	Desc  string    `json:"desc,omitempty"`
	// Profile is the cache key of the pprof bundle captured when the
	// rule fired (kind obs-profile-v1), empty when capture is disabled.
	Profile string `json:"profile,omitempty"`
}

// RuleView is the live state of one rule (on /alerts and in status
// JSON).
type RuleView struct {
	Name      string    `json:"name"`
	Desc      string    `json:"desc,omitempty"`
	State     State     `json:"state"`
	Active    bool      `json:"active"`
	Value     float64   `json:"value"`
	Op        Op        `json:"op"`
	Threshold float64   `json:"threshold"`
	Since     time.Time `json:"since,omitempty"`
}

// Summary is the /alerts document and the alerts section of status
// JSON.
type Summary struct {
	Firing      []string     `json:"firing,omitempty"`
	Rules       []RuleView   `json:"rules"`
	Transitions []Transition `json:"transitions,omitempty"`
	Evals       uint64       `json:"evals"`
	Profiles    uint64       `json:"profiles_captured"`
}

// histPoint is one windowed-history observation of a rule's numerator.
type histPoint struct {
	t time.Time
	v float64
}

// ruleState is a rule plus its evaluation state.
type ruleState struct {
	rule  Rule
	state State
	since time.Time // pending start or firing start
	value float64
	hist  []histPoint
}

// Config describes an Engine.
type Config struct {
	// Registry receives the engine's own firing counter and gauge
	// (required).
	Registry *obs.Registry
	// Profile, when set, receives a CPU+heap pprof bundle every time a
	// rule fires (see profile.go).
	Profile ProfileSink
}

// RingCap bounds the transition log.
const RingCap = 256

// Engine evaluates rules against registry snapshots. Create with New;
// a nil *Engine no-ops on every method.
type Engine struct {
	cfg Config

	mu       sync.Mutex
	rules    []*ruleState
	ring     *obs.Ring[Transition]
	evals    uint64
	profiles uint64
}

// New returns an engine with no rules.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg, ring: obs.NewRing[Transition](RingCap)}
}

// Add registers rules (before or after the first Eval).
func (e *Engine) Add(rules ...Rule) {
	if e == nil {
		return
	}
	e.mu.Lock()
	for _, r := range rules {
		if r.Clear == 0 {
			r.Clear = r.Threshold
		}
		e.rules = append(e.rules, &ruleState{rule: r, state: StateOK})
	}
	e.mu.Unlock()
}

// Eval advances every rule against one registry snapshot taken at now
// and returns the state changes it made, in rule order. A firing
// transition that carries a profile key starts its pprof capture.
// Nil-safe.
func (e *Engine) Eval(snap *obs.Snapshot, now time.Time) []Transition {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	var trs []Transition
	for _, rs := range e.rules {
		if tr, ok := e.eval(rs, snap, now); ok {
			trs = append(trs, tr)
		}
	}
	e.evals++
	e.mu.Unlock()
	for _, tr := range trs {
		if tr.To == StateFiring && tr.Profile != "" {
			e.captureAsync(tr)
		}
	}
	return trs
}

// eval advances one rule's state machine; returns the transition (if
// any). Called with the engine lock held.
func (e *Engine) eval(rs *ruleState, snap *obs.Snapshot, now time.Time) (Transition, bool) {
	r := &rs.rule
	// Gate: an inactive rule resolves (if firing) and forgets history.
	if r.ActiveWhen != nil {
		gv, gok := signalValue(&r.ActiveWhen.Signal, nil, snap, now, 0)
		if !gok || !r.ActiveWhen.Op.breached(gv, r.ActiveWhen.Threshold) {
			rs.hist = nil
			if rs.state == StateOK {
				return Transition{}, false
			}
			return e.transition(rs, StateOK, rs.value, now, "rule gate inactive"), true
		}
	}
	v, ok := signalValue(&r.Signal, rs, snap, now, r.MinDenom)
	if !ok {
		// Insufficient data (short history, MinDenom not met): a
		// pending rule falls back to OK, a firing rule holds.
		if rs.state == StatePending {
			rs.state = StateOK
		}
		return Transition{}, false
	}
	rs.value = v
	switch rs.state {
	case StateOK:
		if r.Op.breached(v, r.Threshold) {
			if r.For <= 0 {
				return e.fire(rs, v, now), true
			}
			rs.state, rs.since = StatePending, now
			return e.logOnly(rs, StateOK, StatePending, v, now), true
		}
	case StatePending:
		if !r.Op.breached(v, r.Threshold) {
			rs.state = StateOK
			return e.logOnly(rs, StatePending, StateOK, v, now), true
		}
		if now.Sub(rs.since) >= r.For {
			return e.fire(rs, v, now), true
		}
	case StateFiring:
		if r.Op.cleared(v, r.Clear) {
			return e.transition(rs, StateOK, v, now, "resolved"), true
		}
	}
	return Transition{}, false
}

// fire moves a rule into StateFiring, stamping the profile key the
// async capture will store under.
func (e *Engine) fire(rs *ruleState, v float64, now time.Time) Transition {
	from := rs.state
	rs.state, rs.since = StateFiring, now
	tr := Transition{Rule: rs.rule.Name, From: from, To: StateFiring,
		At: now, Value: v, Desc: rs.rule.Desc}
	if e.cfg.Profile != nil {
		tr.Profile = ProfileKey(rs.rule.Name, now)
	}
	e.log(tr)
	return tr
}

func (e *Engine) transition(rs *ruleState, to State, v float64, now time.Time, desc string) Transition {
	from := rs.state
	rs.state, rs.since = to, now
	tr := Transition{Rule: rs.rule.Name, From: from, To: to, At: now, Value: v, Desc: desc}
	e.log(tr)
	return tr
}

func (e *Engine) logOnly(rs *ruleState, from, to State, v float64, now time.Time) Transition {
	tr := Transition{Rule: rs.rule.Name, From: from, To: to, At: now, Value: v}
	e.log(tr)
	return tr
}

// log appends a transition to the bounded ring and keeps the firing
// gauge fresh. Called with the engine lock held.
func (e *Engine) log(tr Transition) {
	e.ring.Push(tr)
	if tr.To == StateFiring {
		e.cfg.Registry.Counter("epvf_obs_alerts_fired_total", "rule", tr.Rule).Inc()
	}
	var firing int64
	for _, rs := range e.rules {
		if rs.state == StateFiring {
			firing++
		}
	}
	e.cfg.Registry.Gauge("epvf_obs_alerts_firing").Set(float64(firing))
}

// signalValue computes a signal from the snapshot (plus the rule's own
// history for windowed kinds). ok=false means "insufficient data".
func signalValue(sig *Signal, rs *ruleState, snap *obs.Snapshot, now time.Time, minDenom float64) (float64, bool) {
	switch sig.Kind {
	case Delta:
		if rs == nil {
			return 0, false
		}
		cur := sumSelectors(snap, sig.Num)
		window := sig.Window
		if window <= 0 {
			window = 10 * time.Second
		}
		rs.hist = append(rs.hist, histPoint{t: now, v: cur})
		// Trim history beyond the window (keep one point at/past the
		// edge so the delta spans the full window).
		cut := now.Add(-window)
		idx := 0
		for idx < len(rs.hist)-1 && rs.hist[idx+1].t.Before(cut) {
			idx++
		}
		rs.hist = rs.hist[idx:]
		oldest := rs.hist[0]
		if now.Sub(oldest.t) < window {
			return 0, false // history shorter than the window yet
		}
		return cur - oldest.v, true
	case Ratio:
		num := sumSelectors(snap, sig.Num)
		den := sumSelectors(snap, sig.Den)
		if den < minDenom || den == 0 {
			return 0, false
		}
		return num / den, true
	case Quantile:
		return histQuantile(snap, sig.Num, sig.Q, minDenom)
	default: // Value
		return sumSelectors(snap, sig.Num), true
	}
}

// sumSelectors sums every non-histogram sample matching any selector.
func sumSelectors(snap *obs.Snapshot, sels []Selector) float64 {
	var total float64
	for i := range snap.Samples {
		smp := &snap.Samples[i]
		if smp.Kind == "histogram" {
			continue
		}
		for j := range sels {
			if smp.Name == sels[j].Metric && matchLabels(smp, sels[j].Labels) {
				total += smp.Value
				break
			}
		}
	}
	return total
}

func matchLabels(smp *obs.Sample, kv []string) bool {
	for i := 0; i+1 < len(kv); i += 2 {
		if smp.Labels[kv[i]] != kv[i+1] {
			return false
		}
	}
	return true
}

// histQuantile merges the cumulative buckets of every histogram sample
// matching the selectors and linearly interpolates the q-quantile.
func histQuantile(snap *obs.Snapshot, sels []Selector, q, minDenom float64) (float64, bool) {
	merged := map[float64]int64{}
	var total int64
	for i := range snap.Samples {
		smp := &snap.Samples[i]
		if smp.Kind != "histogram" {
			continue
		}
		for j := range sels {
			if smp.Name == sels[j].Metric && matchLabels(smp, sels[j].Labels) {
				for _, b := range smp.Buckets {
					merged[b.Le] += b.Count
				}
				total += smp.Count
				break
			}
		}
	}
	if total == 0 || float64(total) < minDenom {
		return 0, false
	}
	bounds := make([]float64, 0, len(merged))
	for le := range merged {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	target := q * float64(total)
	prevBound, prevCount := 0.0, int64(0)
	for _, le := range bounds {
		c := merged[le]
		if float64(c) >= target {
			if math.IsInf(le, 1) {
				return prevBound, true // overflow bucket: best bound we have
			}
			span := float64(c - prevCount)
			if span <= 0 {
				return le, true
			}
			frac := (target - float64(prevCount)) / span
			return prevBound + frac*(le-prevBound), true
		}
		prevBound, prevCount = le, c
	}
	return prevBound, true
}

// Firing returns the names of currently-firing rules (for /healthz
// degradation). Nil-safe (empty).
func (e *Engine) Firing() []string {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for _, rs := range e.rules {
		if rs.state == StateFiring {
			out = append(out, rs.rule.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Summarize snapshots the engine (nil for a nil engine).
func (e *Engine) Summarize() *Summary {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &Summary{Evals: e.evals, Profiles: e.profiles}
	for _, rs := range e.rules {
		rv := RuleView{
			Name: rs.rule.Name, Desc: rs.rule.Desc, State: rs.state,
			Active: true, Value: rs.value, Op: rs.rule.Op,
			Threshold: rs.rule.Threshold,
		}
		if rs.state != StateOK {
			rv.Since = rs.since
		}
		s.Rules = append(s.Rules, rv)
		if rs.state == StateFiring {
			s.Firing = append(s.Firing, rs.rule.Name)
		}
	}
	sort.Strings(s.Firing)
	s.Transitions = e.ring.Items()
	return s
}

// ServeHTTP serves the /alerts endpoint: the Summary as indented JSON.
func (e *Engine) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if e == nil {
		http.Error(w, "alert engine disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(e.Summarize())
}
