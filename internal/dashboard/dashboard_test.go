package dashboard

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/ts"
)

func mountTest(t *testing.T, cfg Config) (*obs.Server, *Mounted) {
	t.Helper()
	srv, err := obs.NewServer("127.0.0.1:0", cfg.Registry)
	if err != nil {
		t.Fatal(err)
	}
	m := Mount(srv, cfg)
	srv.Start()
	t.Cleanup(func() {
		m.Stop()
		srv.Close()
	})
	return srv, m
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestMountServesDashboardSurface(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("epvf_cache_hits_total", "tier", "mem", "kind", "summary").Add(3)
	srv, m := mountTest(t, Config{Registry: reg})
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/dashboard")
	if code != 200 {
		t.Fatalf("/dashboard = %d", code)
	}
	for _, want := range []string{"<!DOCTYPE html>", "dash-campaign", "dash-alerts",
		"EventSource('/events')", "</html>"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/dashboard missing %q", want)
		}
	}

	// /ts picks up the registry series once the sampler has ticked.
	m.tick(time.Now())
	_, body = get(t, base+"/ts?prefix=epvf_cache")
	if !strings.Contains(body, "epvf_cache_hits_total") {
		t.Fatalf("/ts missing sampled series: %s", body)
	}

	code, body = get(t, base+"/alerts")
	if code != 200 || !strings.Contains(body, `"rules"`) {
		t.Fatalf("/alerts = %d %s", code, body)
	}
	if !strings.Contains(body, "campaign_stall") {
		t.Fatalf("/alerts missing built-in rules: %s", body)
	}

	// /debug/vars stays one JSON document carrying the telemetry
	// sections next to the server's own registry.
	_, body = get(t, base+"/debug/vars")
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	for _, key := range []string{"epvf_obs", "epvf_ts", "epvf_alerts"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars lacks %s", key)
		}
	}

	// The index advertises the new routes.
	_, body = get(t, base+"/")
	if !strings.Contains(body, "/dashboard") || !strings.Contains(body, "/events") {
		t.Fatalf("index missing dashboard routes: %s", body)
	}
}

func TestHealthzDegradesWhileFiring(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("test_pressure")
	srv, m := mountTest(t, Config{Registry: reg})
	m.Alerts.Add(pressureRule)
	base := "http://" + srv.Addr()

	// The built-ins stay quiet on this registry: only the added rule
	// can degrade /healthz.
	m.tick(time.Now())
	_, body := get(t, base+"/healthz")
	if !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz before firing: %s", body)
	}

	g.Set(10)
	m.tick(time.Now())
	_, body = get(t, base+"/healthz")
	if !strings.Contains(body, `"degraded"`) || !strings.Contains(body, `"pressure"`) {
		t.Fatalf("healthz while firing: %s", body)
	}

	g.Set(0)
	m.tick(time.Now())
	_, body = get(t, base+"/healthz")
	if !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz after resolve: %s", body)
	}
}

// pressureRule fires while the test_pressure gauge is above 5.
var pressureRule = alert.Rule{
	Name:      "pressure",
	Signal:    alert.Signal{Kind: alert.Value, Num: []alert.Selector{{Metric: "test_pressure"}}},
	Op:        alert.Above,
	Threshold: 5,
}

// TestOneTickFeedsCollectorAndAlerts drives the layer's sampling step
// directly: every tick advances the collector and the alert engine
// together, both read the same snapshot, and the engine's transitions
// reach the SSE hub.
func TestOneTickFeedsCollectorAndAlerts(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("test_pressure")
	srv, err := obs.NewServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := mount(srv, Config{Registry: reg})
	defer m.Stop()
	m.Alerts.Add(pressureRule)
	sub := m.Hub.Subscribe()
	defer sub.Close()

	const n = 6
	now := time.Unix(5000, 0)
	for i := 0; i < n; i++ {
		g.Set(float64(3 * i))
		m.tick(now)
		pts := m.Collector.JSON("", "test_pressure").Series[0].Points
		recorded := pts[len(pts)-1]
		if recorded.T != now.UnixMilli() || recorded.V != float64(3*i) {
			t.Fatalf("tick %d: ts recorded %+v, want %v at %v", i, recorded, 3*i, now.UnixMilli())
		}
		var got float64
		for _, rv := range m.Alerts.Summarize().Rules {
			if rv.Name == "pressure" {
				got = rv.Value
			}
		}
		if got != recorded.V {
			t.Fatalf("tick %d: rule saw %v, ts recorded %v", i, got, recorded.V)
		}
		now = now.Add(time.Second)
	}
	if ticks := m.Collector.Summarize().Ticks; ticks != n {
		t.Fatalf("ts ticks = %d, want %d", ticks, n)
	}
	if evals := m.Alerts.Summarize().Evals; evals != n {
		t.Fatalf("alert evals = %d, want %d", evals, n)
	}

	// The gauge crossed 5 on the third tick: that tick published the
	// firing transition to the hub.
	var sawFire bool
	for len(sub.C()) > 0 {
		ev := <-sub.C()
		if ev.Type != ts.EventAlert {
			continue
		}
		var tr alert.Transition
		if err := json.Unmarshal(ev.Data, &tr); err != nil {
			t.Fatal(err)
		}
		if tr.Rule == "pressure" && tr.To == alert.StateFiring && tr.Value == 6 {
			sawFire = true
		}
	}
	if !sawFire {
		t.Fatal("firing transition never reached the hub")
	}
}

func TestSpanSinkFansOutOverSSE(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := obs.NewServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	m := Mount(srv, Config{Registry: reg})
	srv.Start()
	defer func() { m.Stop(); srv.Close() }()

	sub := m.Hub.Subscribe()
	defer sub.Close()

	tracer := obs.NewTracer(nil)
	tracer.Start("unit-span").End()

	select {
	case ev := <-sub.C():
		if ev.Type != ts.EventSpan {
			t.Fatalf("event type = %q, want span", ev.Type)
		}
		var rec obs.SpanRecord
		if err := json.Unmarshal(ev.Data, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Name != "unit-span" {
			t.Fatalf("span name = %q", rec.Name)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("span never reached the hub")
	}

	// Stop removes the sink: later spans must not be delivered.
	m.Stop()
	tracer.Start("after-stop").End()
	select {
	case ev, ok := <-sub.C():
		if ok {
			t.Fatalf("unexpected event after Stop: %s %s", ev.Type, ev.Data)
		}
	case <-time.After(100 * time.Millisecond):
	}
}

func TestMountedPublishAndStopIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := obs.NewServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	m := Mount(srv, Config{Registry: reg})
	defer srv.Close()

	sub := m.Hub.Subscribe()
	m.Publish("campaign", map[string]string{"id": "x"})
	select {
	case ev := <-sub.C():
		if ev.Type != "campaign" {
			t.Fatalf("type = %q", ev.Type)
		}
	case <-time.After(time.Second):
		t.Fatal("publish not delivered")
	}
	sub.Close()

	m.Stop()
	m.Stop() // idempotent
	var nilM *Mounted
	nilM.Publish("x", 1)
	nilM.Stop()
}

// TestDebugVarsShowsOwnMount: each server's /debug/vars carries its own
// mount's epvf_ts and epvf_alerts sections, so stopping a later mount on
// another server leaves an earlier live one's sections in place.
func TestDebugVarsShowsOwnMount(t *testing.T) {
	srvA, a := mountTest(t, Config{Registry: obs.NewRegistry()})
	a.Alerts.Add(pressureRule)
	for range 3 {
		a.tick(time.Now())
	}
	_, b := mountTest(t, Config{Registry: obs.NewRegistry()})
	b.tick(time.Now())
	b.Stop()

	_, body := get(t, "http://"+srvA.Addr()+"/debug/vars")
	var vars struct {
		TS     *ts.Summary    `json:"epvf_ts"`
		Alerts *alert.Summary `json:"epvf_alerts"`
	}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if vars.TS == nil || vars.TS.Ticks != 3 {
		t.Errorf("A's epvf_ts = %+v, want A's 3 ticks", vars.TS)
	}
	if vars.Alerts == nil || !slices.ContainsFunc(vars.Alerts.Rules, func(r alert.RuleView) bool { return r.Name == pressureRule.Name }) {
		t.Errorf("A's epvf_alerts = %+v, want A's %q rule", vars.Alerts, pressureRule.Name)
	}
}
