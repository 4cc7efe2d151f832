package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func startTestServer(t *testing.T, reg *Registry) *Server {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("epvf_interp_runs_total").Add(7)
	srv := startTestServer(t, reg)
	srv.HandleJSON("/campaign", func() (any, error) {
		return map[string]int{"done": 12}, nil
	})
	srv.Start()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "epvf_interp_runs_total 7") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	code, body = get(t, base+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=json: code %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if snap.Counter("epvf_interp_runs_total") != 7 {
		t.Error("JSON metrics missing counter")
	}

	code, body = get(t, base+"/campaign")
	if code != http.StatusOK || !strings.Contains(body, `"done": 12`) {
		t.Errorf("/campaign: code %d body %q", code, body)
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d", code)
	}
	code, _ = get(t, base+"/debug/pprof/heap?debug=1")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/heap: code %d", code)
	}
	code, body = get(t, base+"/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars: code %d", code)
	}
	code, body = get(t, base+"/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index: code %d body %q", code, body)
	}
	code, _ = get(t, base+"/nope")
	if code != http.StatusNotFound {
		t.Errorf("unknown path: code %d, want 404", code)
	}
}

func TestHandleJSONError(t *testing.T) {
	srv := startTestServer(t, NewRegistry())
	srv.HandleJSON("/broken", func() (any, error) {
		return nil, fmt.Errorf("no campaign running")
	})
	srv.Start()
	code, body := get(t, "http://"+srv.Addr()+"/broken")
	if code != http.StatusInternalServerError || !strings.Contains(body, "no campaign running") {
		t.Errorf("error view: code %d body %q", code, body)
	}
}

func TestShutdownDrainsInFlightRequests(t *testing.T) {
	// A scrape that is mid-handler when Shutdown starts must complete with
	// a full body; Shutdown must then return without error.
	srv := startTestServer(t, NewRegistry())
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.HandleJSON("/slow", func() (any, error) {
		close(entered)
		<-release
		return map[string]string{"state": "drained"}, nil
	})
	srv.Start()

	type scrape struct {
		code int
		body string
	}
	got := make(chan scrape, 1)
	go func() {
		code, body := get(t, "http://"+srv.Addr()+"/slow")
		got <- scrape{code, body}
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Graceful shutdown must wait for the in-flight handler.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	s := <-got
	if s.code != http.StatusOK || !strings.Contains(s.body, "drained") {
		t.Errorf("in-flight scrape truncated by shutdown: code %d body %q", s.code, s.body)
	}
	// After the drain, new connections are refused.
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
}

func TestServerLiveUpdates(t *testing.T) {
	reg := NewRegistry()
	srv := startTestServer(t, reg)
	srv.Start()
	base := "http://" + srv.Addr()
	c := reg.Counter("epvf_live_total")
	_, body := get(t, base+"/metrics")
	if !strings.Contains(body, "epvf_live_total 0") {
		t.Errorf("initial scrape: %q", body)
	}
	c.Add(41)
	c.Inc()
	_, body = get(t, base+"/metrics")
	if !strings.Contains(body, "epvf_live_total 42") {
		t.Errorf("live scrape: %q", body)
	}
}

// TestConcurrentRegistrationUnderLoad hammers /healthz and freshly
// registered views while sections and handlers are still being added:
// daemons register cache/fleet sections after Start, so registration
// must be safe against in-flight probes (run under -race).
func TestConcurrentRegistrationUnderLoad(t *testing.T) {
	srv := startTestServer(t, NewRegistry())
	srv.Start()
	base := "http://" + srv.Addr()
	client := &http.Client{Timeout: 5 * time.Second}

	const registrars = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Request load: continuous /healthz probes plus hits on the views the
	// registrars have already added.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				url := base + "/healthz"
				if n%2 == 1 {
					url = fmt.Sprintf("%s/view/%d/%d", base, n%registrars, n%8)
				}
				resp, err := client.Get(url)
				if err != nil {
					t.Errorf("GET %s: %v", url, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// A view may 404 before its registrar lands; /healthz never may.
				if strings.HasSuffix(url, "/healthz") && resp.StatusCode != http.StatusOK {
					t.Errorf("/healthz: code %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	// Registration load: handlers and health sections appear while the
	// probes run.
	for r := 0; r < registrars; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				path := fmt.Sprintf("/view/%d/%d", r, i)
				srv.Handle(path, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
					fmt.Fprintf(w, "view %s", req.URL.Path)
				}))
				srv.AddHealth(fmt.Sprintf("section_%d_%d", r, i), func() any { return i })
			}
		}(r)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Every registered section and view answers once the dust settles.
	code, body := get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz after churn: code %d", code)
	}
	var sections map[string]any
	if err := json.Unmarshal([]byte(body), &sections); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	for r := 0; r < registrars; r++ {
		for i := 0; i < 8; i++ {
			if _, ok := sections[fmt.Sprintf("section_%d_%d", r, i)]; !ok {
				t.Errorf("section_%d_%d missing from /healthz", r, i)
			}
		}
	}
	code, body = get(t, base+"/view/0/0")
	if code != http.StatusOK || !strings.Contains(body, "view /view/0/0") {
		t.Errorf("registered view: code %d body %q", code, body)
	}
}

func TestHealthz(t *testing.T) {
	srv := startTestServer(t, NewRegistry())
	srv.AddHealth("cache", func() any {
		return map[string]int{"mem_entries": 3}
	})
	srv.Start()
	srv.AddHealth("fleet", func() any { return "idle" })

	code, body := get(t, "http://"+srv.Addr()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: code %d", code)
	}
	var got struct {
		Status        string         `json:"status"`
		UptimeSeconds float64        `json:"uptime_seconds"`
		Cache         map[string]int `json:"cache"`
		Fleet         string         `json:"fleet"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("healthz JSON: %v\n%s", err, body)
	}
	if got.Status != "ok" {
		t.Errorf("status = %q, want ok", got.Status)
	}
	if got.UptimeSeconds < 0 {
		t.Errorf("uptime = %v, want >= 0", got.UptimeSeconds)
	}
	if got.Cache["mem_entries"] != 3 {
		t.Errorf("cache section = %v", got.Cache)
	}
	// Sections registered after Start serve too.
	if got.Fleet != "idle" {
		t.Errorf("fleet section = %q", got.Fleet)
	}
}

// TestDebugVarsShowsOwnRegistry: each server's /debug/vars carries its
// own registry under epvf_obs, and still every other published expvar.
func TestDebugVarsShowsOwnRegistry(t *testing.T) {
	expvar.Publish("obs_test_published", expvar.Func(func() any { return "present" }))
	first, second := NewRegistry(), NewRegistry()
	first.Counter("first_only_total").Inc()
	second.Counter("second_only_total").Inc()
	for _, tc := range []struct {
		reg        *Registry
		own, other string
	}{
		{first, "first_only_total", "second_only_total"},
		{second, "second_only_total", "first_only_total"},
	} {
		srv := startTestServer(t, tc.reg)
		srv.Start()
		code, body := get(t, "http://"+srv.Addr()+"/debug/vars")
		var vars map[string]json.RawMessage
		if err := json.Unmarshal([]byte(body), &vars); code != http.StatusOK || err != nil {
			t.Fatalf("/debug/vars: code %d, %v\n%s", code, err, body)
		}
		obsVars := string(vars["epvf_obs"])
		if !strings.Contains(obsVars, tc.own) || strings.Contains(obsVars, tc.other) {
			t.Errorf("epvf_obs = %s; want %s and not %s", obsVars, tc.own, tc.other)
		}
		for _, key := range []string{"memstats", "cmdline", "obs_test_published"} {
			if _, ok := vars[key]; !ok {
				t.Errorf("/debug/vars lacks %s", key)
			}
		}
	}
}
