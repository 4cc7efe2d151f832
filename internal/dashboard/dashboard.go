// Package dashboard mounts the live-telemetry surface onto an
// obs.Server: the /ts time-series endpoint, the /events SSE stream, the
// /alerts rule view and the /dashboard HTML page (rendered with
// internal/report, no external assets). Mount wires the whole layer —
// collector, fanout hub, alert engine, span sink, /healthz degradation
// and the /debug/vars ts/alerts sections — starts its one sampling
// tick, and returns one handle that tears it all down.
package dashboard

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/ts"
)

// Config tunes a Mount.
type Config struct {
	// Registry is the sampled/evaluated registry (required).
	Registry *obs.Registry
	// Title heads the dashboard page; empty means "epvf live dashboard".
	Title string
	// StallWindow tunes the built-in campaign/coordinator stall rules.
	StallWindow time.Duration
	// PredictedSDC enables the SDC-spike rule when > 0: the
	// ePVF-predicted SDC rate the measured rate is compared against.
	PredictedSDC float64
	// Profiles, when non-nil, stores pprof bundles on alert firing
	// (*cache.Store satisfies it).
	Profiles alert.ProfileSink
}

// Mounted is a live telemetry layer: the pieces CLIs wire into their
// publishers, plus Stop. Rules beyond the built-ins are added through
// Alerts.
type Mounted struct {
	Collector *ts.Collector
	Hub       *ts.Hub
	Alerts    *alert.Engine

	reg      *obs.Registry
	stopOnce sync.Once
	stops    []func()
}

// Publish forwards an event to the SSE hub (the func(event, v) shape
// the campaign monitor and dist coordinator publisher seams expect).
func (m *Mounted) Publish(event string, v any) {
	if m == nil {
		return
	}
	m.Hub.PublishJSON(event, v)
}

// Stop tears the layer down: the sampling goroutine and the span sink.
// The server's /debug/vars sections keep showing the layer's last state.
func (m *Mounted) Stop() {
	if m == nil {
		return
	}
	m.stopOnce.Do(func() {
		for _, fn := range m.stops {
			fn()
		}
	})
}

// tick is the layer's one sampling step: one registry snapshot taken at
// now feeds both the collector and the alert engine, and the engine's
// transitions go out over the SSE hub.
func (m *Mounted) tick(now time.Time) {
	snap := m.reg.Snapshot()
	m.Collector.Sample(snap, now)
	for _, tr := range m.Alerts.Eval(snap, now) {
		m.Hub.PublishJSON(ts.EventAlert, tr)
	}
}

// Mount wires the live-telemetry layer onto srv and starts its one
// sampling goroutine, which ticks every ts.Stride. The returned handle
// is live immediately; call Stop on shutdown.
func Mount(srv *obs.Server, cfg Config) *Mounted {
	m := mount(srv, cfg)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(ts.Stride)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				m.tick(time.Now())
			}
		}
	}()
	m.stops = append(m.stops, func() {
		close(done)
		<-exited
	})
	return m
}

// mount wires everything Mount does except the sampling goroutine;
// nothing samples until tick is called.
func mount(srv *obs.Server, cfg Config) *Mounted {
	if cfg.Title == "" {
		cfg.Title = "epvf live dashboard"
	}
	hub := ts.NewHub(cfg.Registry)
	eng := alert.New(alert.Config{Registry: cfg.Registry, Profile: cfg.Profiles})
	eng.Add(alert.Builtins(alert.BuiltinConfig{
		StallWindow:  cfg.StallWindow,
		PredictedSDC: cfg.PredictedSDC,
	})...)
	m := &Mounted{Collector: ts.New(hub), Hub: hub, Alerts: eng, reg: cfg.Registry}

	srv.Handle("/ts", m.Collector)
	srv.Handle("/events", hub)
	srv.Handle("/alerts", eng)
	srv.Handle("/dashboard", pageHandler(cfg.Title))
	srv.SetDegraded(eng.Firing)

	removeSink := obs.SetSpanSink(func(rec obs.SpanRecord) {
		hub.PublishJSON(ts.EventSpan, rec)
	})

	srv.AddVars("epvf_ts", func() any { return m.Collector.Summarize() })
	srv.AddVars("epvf_alerts", func() any { return m.Alerts.Summarize() })

	m.stops = []func(){removeSink}
	return m
}
