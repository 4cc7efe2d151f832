package ts

import (
	"bufio"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestCollectorSamplesAndRates(t *testing.T) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("requests_total", "code", "200")
	g := reg.Gauge("depth")
	now := time.Unix(1000, 0)
	c := New(nil)

	for i := 0; i < 5; i++ {
		ctr.Add(10)
		g.Set(float64(i))
		c.Sample(reg.Snapshot(), now)
		now = now.Add(time.Second)
	}

	doc := c.JSON("", "requests_total")
	if len(doc.Series) != 1 {
		t.Fatalf("series = %d, want 1", len(doc.Series))
	}
	s := doc.Series[0]
	if s.Kind != "counter" || s.Labels["code"] != "200" {
		t.Fatalf("bad series meta: %+v", s)
	}
	if got := len(s.Points); got != 5 {
		t.Fatalf("raw points = %d, want 5", got)
	}
	if last := s.Points[4].V; last != 50 {
		t.Fatalf("last raw = %v, want 50", last)
	}
	// Rate points start at the second tick (needs a previous sample).
	if got := len(s.Rate); got != 4 {
		t.Fatalf("rate points = %d, want 4", got)
	}
	for _, p := range s.Rate {
		if p.V != 10 {
			t.Fatalf("rate = %v, want 10/s", p.V)
		}
	}

	gd := c.JSON("1s", "depth")
	if len(gd.Series) != 1 || gd.Series[0].Rate != nil {
		t.Fatalf("gauge series should have no rate ring: %+v", gd.Series)
	}
}

func TestCollectorRingWraps(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("v")
	now := time.Unix(0, 0)
	c := New(nil)
	const n = Capacity + 6
	for i := 0; i < n; i++ {
		g.Set(float64(i))
		c.Sample(reg.Snapshot(), now)
		now = now.Add(time.Second)
	}
	pts := c.JSON("", "v").Series[0].Points
	if len(pts) != Capacity {
		t.Fatalf("points = %d, want capacity %d", len(pts), Capacity)
	}
	for i, p := range pts {
		if want := float64(n - Capacity + i); p.V != want {
			t.Fatalf("pts[%d] = %v, want %v (oldest-first after wrap)", i, p.V, want)
		}
	}
}

func TestCollectorDownsamples(t *testing.T) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("c_total")
	g := reg.Gauge("g")
	now := time.Unix(2000, 0)
	c := New(nil)

	for i := 1; i <= 20; i++ {
		ctr.Add(1)
		g.Set(float64(i))
		c.Sample(reg.Snapshot(), now)
		now = now.Add(time.Second)
	}

	// 20 base ticks fold into two 10s points.
	cd := c.JSON("10s", "c_total").Series[0]
	if len(cd.Points) != 2 {
		t.Fatalf("10s counter points = %d, want 2", len(cd.Points))
	}
	// Counters keep the last value of the window.
	if cd.Points[0].V != 10 || cd.Points[1].V != 20 {
		t.Fatalf("10s counter points = %+v, want 10,20", cd.Points)
	}
	gd := c.JSON("10s", "g").Series[0]
	// Gauges keep the window mean: mean(1..10)=5.5, mean(11..20)=15.5.
	if gd.Points[0].V != 5.5 || gd.Points[1].V != 15.5 {
		t.Fatalf("10s gauge points = %+v, want 5.5,15.5", gd.Points)
	}
	// No full 60s window yet.
	if got := len(c.JSON("60s", "g").Series[0].Points); got != 0 {
		t.Fatalf("60s points = %d, want 0", got)
	}
	if res := c.JSON("1m", "g").Res; res != "1m0s" {
		t.Fatalf("1m res label = %q", res)
	}
}

func TestCollectorMaxSeries(t *testing.T) {
	reg := obs.NewRegistry()
	for i := 0; i < MaxSeries+2; i++ {
		reg.Gauge(fmt.Sprintf("g%d", i)).Set(1)
	}
	c := New(nil)
	c.Sample(reg.Snapshot(), time.Unix(0, 0))
	sum := c.Summarize()
	if sum.Series != MaxSeries {
		t.Fatalf("series = %d, want %d (bounded)", sum.Series, MaxSeries)
	}
	if sum.DroppedSeries != 2 {
		t.Fatalf("dropped = %d, want 2", sum.DroppedSeries)
	}
}

func TestNilCollectorAndHub(t *testing.T) {
	var c *Collector
	c.Sample(nil, time.Time{})
	if c.Summarize() != nil || len(c.JSON("", "").Series) != 0 {
		t.Fatal("nil collector views should be empty")
	}
	var h *Hub
	h.Publish("x", nil)
	h.PublishJSON("x", 1)
	if h.Subscribe() != nil || h.Subscribers() != 0 || h.Drops() != 0 {
		t.Fatal("nil hub should no-op")
	}
	var s *Sub
	s.Close()
	if s.C() != nil || s.Drops() != 0 {
		t.Fatal("nil sub should no-op")
	}
}

// TestHubFanoutUnderLoad runs N live subscribers plus one deliberately
// slow (never-draining) client and asserts: every fast subscriber sees
// every event, publish latency stays bounded by the slow client, drops
// are counted into epvf_obs_sse_drops, and no goroutines leak once
// subscribers disconnect.
func TestHubFanoutUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	h := NewHub(reg)

	const nFast = 8
	const nEvents = 500
	slow := h.Subscribe()

	var wg sync.WaitGroup
	counts := make([]atomic.Int64, nFast)
	for i := 0; i < nFast; i++ {
		sub := h.Subscribe()
		wg.Add(1)
		go func(i int, sub *Sub) {
			defer wg.Done()
			for range sub.C() {
				counts[i].Add(1)
			}
		}(i, sub)
		defer sub.Close()
	}

	// Publish one queue's worth, let the fast subscribers drain it, then
	// publish the rest: the fast queues never overflow, the slow one
	// drops everything past its first QueueDepth events.
	var elapsed time.Duration
	publish := func(n int) {
		start := time.Now()
		for i := 0; i < n; i++ {
			h.Publish(EventMetrics, []byte(`{"k":"x","v":1}`))
		}
		elapsed += time.Since(start)
	}
	publish(QueueDepth)
	deadline := time.Now().Add(5 * time.Second)
	for i := range counts {
		for counts[i].Load() < QueueDepth && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	publish(nEvents - QueueDepth)
	// Non-blocking publish: 500 events to 9 subscribers must not take
	// anywhere near a second even on a loaded CI box.
	if elapsed > time.Second {
		t.Fatalf("publishing took %v; slow client blocked the hub?", elapsed)
	}

	wantDrops := uint64(nEvents - QueueDepth)
	if got := slow.Drops(); got != wantDrops {
		t.Fatalf("slow sub drops = %d, want %d", got, wantDrops)
	}
	if got := h.Drops(); got != wantDrops {
		t.Fatalf("hub drops = %d, want %d", got, wantDrops)
	}
	if got := reg.Snapshot().Counter("epvf_obs_sse_drops"); got != int64(wantDrops) {
		t.Fatalf("epvf_obs_sse_drops = %v, want %d", got, wantDrops)
	}

	// Close the fast subscribers; their drain goroutines must exit and
	// each must have seen every event.
	h.mu.Lock()
	subs := make([]*Sub, 0, len(h.subs))
	for s := range h.subs {
		subs = append(subs, s)
	}
	h.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
	wg.Wait()
	for i := range counts {
		if n := counts[i].Load(); n != nEvents {
			t.Fatalf("fast sub %d saw %d/%d events", i, n, nEvents)
		}
	}
	if h.Subscribers() != 0 {
		t.Fatalf("subscribers = %d after close, want 0", h.Subscribers())
	}

	// Goroutine-leak check with a settle loop (runtime bookkeeping lags).
	deadline = time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+1 {
		t.Fatalf("goroutines leaked: %d -> %d", before, after)
	}
}

func TestHubPublishJSONSkipsMarshalWithoutSubscribers(t *testing.T) {
	h := NewHub(obs.NewRegistry())
	// A value json.Marshal would reject: proof the marshal is skipped.
	h.PublishJSON(EventMetrics, func() {})
	if h.Published() != 0 {
		t.Fatal("publish with zero subscribers should be dropped before marshal")
	}
	sub := h.Subscribe()
	defer sub.Close()
	h.PublishJSON(EventMetrics, map[string]int{"a": 1})
	select {
	case ev := <-sub.C():
		if ev.Type != EventMetrics || string(ev.Data) != `{"a":1}` {
			t.Fatalf("bad event: %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no event delivered")
	}
}

func TestSSEHandlerStreams(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHub(reg)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Wait for the subscription to register, then publish.
	deadline := time.Now().Add(2 * time.Second)
	for h.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	h.PublishJSON(EventAlert, map[string]string{"rule": "stall"})

	sc := bufio.NewScanner(resp.Body)
	var sawHello, sawAlert bool
	for sc.Scan() {
		line := sc.Text()
		if line == "event: "+EventHello {
			sawHello = true
		}
		if line == "event: "+EventAlert {
			sawAlert = true
		}
		if strings.HasPrefix(line, "data: ") && sawAlert {
			if !strings.Contains(line, `"stall"`) {
				t.Fatalf("alert data = %q", line)
			}
			break
		}
	}
	if !sawHello || !sawAlert {
		t.Fatalf("hello=%v alert=%v", sawHello, sawAlert)
	}

	// Disconnect; the handler must unsubscribe.
	resp.Body.Close()
	deadline = time.Now().Add(2 * time.Second)
	for h.Subscribers() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := h.Subscribers(); n != 0 {
		t.Fatalf("subscribers = %d after disconnect, want 0", n)
	}
}

func TestServeHTTPTSDocument(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("epvf_x_total").Add(3)
	c := New(nil)
	c.Sample(reg.Snapshot(), time.Now())
	rr := httptest.NewRecorder()
	c.ServeHTTP(rr, httptest.NewRequest("GET", "/ts?prefix=epvf_x", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d", rr.Code)
	}
	body := rr.Body.String()
	if !strings.Contains(body, `"epvf_x_total"`) || !strings.Contains(body, `"stride_seconds"`) {
		t.Fatalf("bad /ts body: %s", body)
	}
}
