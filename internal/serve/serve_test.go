package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/epvf"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/obs"
)

// startDaemon runs a daemon on a free port with a disk cache in dir.
func startDaemon(t testing.TB, dir string) *Server {
	t.Helper()
	return startDaemonConfig(t, Config{CacheDir: dir})
}

// startDaemonConfig runs a daemon configured by cfg on a free port.
func startDaemonConfig(t testing.TB, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func benchIR(t *testing.T, name string) string {
	t.Helper()
	b, ok := bench.Get(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	return ir.Print(b.MustModule(1))
}

// TestAnalyzeStages walks one module through every stage on a plain and
// on an incremental daemon: cold computed, warm summary-cache, summary
// from the disk tier after a restart, and — once the summary entry is
// removed — a fresh analysis whose scalars equal the cold reply's. The
// incremental daemon answers that one from its section cache alone.
func TestAnalyzeStages(t *testing.T) {
	for _, incremental := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", incremental), func(t *testing.T) {
			dir := t.TempDir()
			start := func() *Client {
				return NewClient(startDaemonConfig(t, Config{CacheDir: dir, Incremental: incremental}).Addr())
			}
			c := start()
			irText := benchIR(t, "mm")

			cold, err := c.Analyze(irText)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Stage != StageComputed || cold.CacheHit {
				t.Fatalf("cold request: stage=%s hit=%v, want computed miss", cold.Stage, cold.CacheHit)
			}
			if cold.Summary.TotalBits == 0 || cold.Summary.Module != "mm" {
				t.Fatalf("implausible summary: %+v", cold.Summary)
			}

			warm, err := c.Analyze(irText)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Stage != StageSummary || !warm.CacheHit {
				t.Fatalf("warm request: stage=%s hit=%v, want summary-cache hit", warm.Stage, warm.CacheHit)
			}
			if warm.ModuleHash != cold.ModuleHash {
				t.Fatalf("module hash changed: %s vs %s", warm.ModuleHash, cold.ModuleHash)
			}

			// Restart: a fresh daemon over the same directory serves the
			// summary from the disk tier without recomputing.
			restart, err := start().Analyze(irText)
			if err != nil {
				t.Fatal(err)
			}
			if restart.Stage != StageSummary {
				t.Fatalf("post-restart stage = %s, want summary-cache", restart.Stage)
			}

			// Dropping only the summary entry forces an analysis: a plain
			// daemon recomputes everything, an incremental one reuses
			// every section profile the cold request stored.
			sumPath := filepath.Join(dir, "epvf-cache-v1", KindSummary, cold.ModuleHash)
			if err := os.Remove(sumPath); err != nil {
				t.Fatalf("remove summary entry: %v", err)
			}
			again, err := start().Analyze(irText)
			if err != nil {
				t.Fatal(err)
			}
			if incremental {
				if again.Stage != StageIncremental || again.Sections == nil || again.Sections.Recomputed != 0 {
					t.Fatalf("after summary eviction: stage=%s sections=%+v, want incremental with nothing recomputed", again.Stage, again.Sections)
				}
			} else if again.Stage != StageComputed {
				t.Fatalf("after summary eviction: stage=%s, want computed", again.Stage)
			}
			if got, want := summaryScalars(again.Summary), summaryScalars(cold.Summary); !reflect.DeepEqual(got, want) {
				t.Fatalf("scalars after summary eviction diverge:\n  cold %+v\nagain %+v", want, got)
			}
		})
	}
}

// summaryScalars strips slices (and the timing floats, which genuinely
// differ between runs) so summaries compare with ==.
func summaryScalars(s *Summary) Summary {
	cp := *s
	cp.PerFunc, cp.PerInstr = nil, nil
	cp.GraphBuildSeconds, cp.ModelsSeconds = 0, 0
	return cp
}

// TestCachedRenderByteIdentical is the acceptance check: for every
// Table-IV kernel, the daemon's cold reply, its warm cached reply, and
// a fresh local analysis must render byte-identical reports (timing
// rows excluded — they measure different runs by definition).
func TestCachedRenderByteIdentical(t *testing.T) {
	s := startDaemon(t, t.TempDir())
	c := NewClient(s.Addr())
	opts := RenderOptions{Classes: true, PerFunc: true, PerInstr: 10}
	for _, b := range bench.Paper10() {
		m := b.MustModule(1)
		a, golden, err := epvf.AnalyzeModule(m, epvf.Config{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		local := Summarize(m.Name, a, golden.DynInstrs).Render(opts)

		cold, err := c.Analyze(ir.Print(m))
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		warm, err := c.Analyze(ir.Print(m))
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if got := cold.Summary.Render(opts); got != local {
			t.Errorf("%s: cold daemon render differs from local:\n--- local ---\n%s\n--- daemon ---\n%s", b.Name, local, got)
		}
		if got := warm.Summary.Render(opts); got != local {
			t.Errorf("%s: cached daemon render differs from local:\n--- local ---\n%s\n--- daemon ---\n%s", b.Name, local, got)
		}
		if warm.Stage != StageSummary {
			t.Errorf("%s: warm stage = %s", b.Name, warm.Stage)
		}
	}
}

func TestAnalyzeSingleflight(t *testing.T) {
	s := startDaemon(t, t.TempDir())
	c := NewClient(s.Addr())
	irText := benchIR(t, "bfs")
	const n = 8
	replies := make([]*AnalyzeReply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.Analyze(irText)
			if err != nil {
				t.Error(err)
				return
			}
			replies[i] = r
		}(i)
	}
	wg.Wait()
	computed := 0
	for _, r := range replies {
		if r == nil {
			t.Fatal("missing reply")
		}
		if r.Stage == StageComputed {
			computed++
		}
	}
	// The cache singleflights concurrent fills: at most one request may
	// have run the full analysis.
	if computed > 1 {
		t.Fatalf("%d concurrent requests ran the full analysis, want <= 1", computed)
	}
	st := s.Store().Stats()
	if st.Fills != 1 {
		t.Fatalf("store fills = %d, want 1", st.Fills)
	}
}

func TestAnalyzeBadRequests(t *testing.T) {
	s := startDaemon(t, t.TempDir())
	c := NewClient(s.Addr())
	if _, err := c.Analyze("this is not IR"); err == nil {
		t.Error("malformed IR accepted")
	}
	if _, err := c.Analyze(""); err == nil {
		t.Error("empty IR accepted")
	}
}

func TestBlobRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := startDaemon(t, dir)
	c := NewClient(s.Addr())
	for _, kind := range []string{KindCampaign, KindAttr} {
		payload := []byte("payload for " + kind)
		if _, ok, err := c.GetBlob(kind, "abcd1234"); err != nil || ok {
			t.Fatalf("%s: empty GetBlob = ok=%v err=%v, want miss", kind, ok, err)
		}
		if err := c.PutBlob(kind, "abcd1234", payload); err != nil {
			t.Fatalf("%s: PutBlob: %v", kind, err)
		}
		got, ok, err := c.GetBlob(kind, "abcd1234")
		if err != nil || !ok || !bytes.Equal(got, payload) {
			t.Fatalf("%s: GetBlob = %q, %v, %v", kind, got, ok, err)
		}
	}
	// A bad plan key is rejected, not stored.
	if err := c.PutBlob(KindCampaign, "../escape", []byte("x")); err == nil {
		t.Error("path-escaping plan key accepted")
	}

	// Blobs survive a daemon restart via the disk tier.
	s2 := startDaemon(t, dir)
	got, ok, err := NewClient(s2.Addr()).GetBlob(KindCampaign, "abcd1234")
	if err != nil || !ok || string(got) != "payload for campaign" {
		t.Fatalf("post-restart GetBlob = %q, %v, %v", got, ok, err)
	}
}

func TestHealthzCacheSection(t *testing.T) {
	s := startDaemon(t, t.TempDir())
	c := NewClient(s.Addr())
	if err := c.PutBlob(KindCampaign, "aa11", []byte("x")); err != nil {
		t.Fatal(err)
	}
	doc, err := c.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if doc["status"] != "ok" {
		t.Errorf("status = %v", doc["status"])
	}
	sect, ok := doc["cache"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no cache section: %v", doc)
	}
	if n, _ := sect["mem_entries"].(float64); n != 1 {
		t.Errorf("cache.mem_entries = %v, want 1", sect["mem_entries"])
	}
}

func TestGracefulShutdown(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	c := NewClient(s.Addr())
	if err := c.PutBlob(KindAttr, "ff00", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, _, err := c.GetBlob(KindAttr, "ff00"); err == nil {
		t.Error("request succeeded after shutdown")
	}
}

func TestMetricsCountStages(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	c := NewClient(s.Addr())
	irText := benchIR(t, "bfs")
	for i := 0; i < 3; i++ {
		if _, err := c.Analyze(irText); err != nil {
			t.Fatal(err)
		}
	}
	if v := reg.Counter("epvf_serve_requests_total", "endpoint", "analyze", "outcome", StageComputed).Value(); v != 1 {
		t.Errorf("computed count = %d, want 1", v)
	}
	if v := reg.Counter("epvf_serve_requests_total", "endpoint", "analyze", "outcome", StageSummary).Value(); v != 2 {
		t.Errorf("summary-cache count = %d, want 2", v)
	}
}

// rawAnalyze posts a raw body to /v1/analyze so the test can inspect
// response headers the Client abstracts away.
func rawAnalyze(t *testing.T, addr, body string) *http.Response {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestStageHeaderAllTiers: every analyze reply carries X-Epvf-Stage,
// and it names the tier that actually served the request.
func TestStageHeaderAllTiers(t *testing.T) {
	s := startDaemon(t, t.TempDir())
	body, err := json.Marshal(AnalyzeRequest{IR: benchIR(t, "mm")})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{StageComputed, StageSummary} {
		resp := rawAnalyze(t, s.Addr(), string(body))
		got := resp.Header.Get(StageHeader)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, resp.StatusCode)
		}
		if got != want {
			t.Fatalf("request %d: %s = %q, want %q", i, StageHeader, got, want)
		}
	}
}

// TestBadRequestStageHeader: error replies carry the stage header too,
// reporting unresolved — a truncated IR body (cut mid-module) and a
// truncated JSON envelope both come back 400, and a module that parses
// but has no main 422, never a silent hang, a 500 or an unheadered
// error.
func TestBadRequestStageHeader(t *testing.T) {
	s := startDaemon(t, t.TempDir())
	full := benchIR(t, "mm")
	truncatedIR, err := json.Marshal(AnalyzeRequest{IR: full[:len(full)/2]})
	if err != nil {
		t.Fatal(err)
	}
	noMain, err := json.Marshal(AnalyzeRequest{IR: "define void @f() {\nentry:\n  ret void\n}\n"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, body string
		status     int
	}{
		{"truncated IR text", string(truncatedIR), http.StatusBadRequest},
		{"truncated JSON body", `{"ir": "define`, http.StatusBadRequest},
		{"empty IR", `{"ir": ""}`, http.StatusBadRequest},
		{"no main", string(noMain), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp := rawAnalyze(t, s.Addr(), tc.body)
		got := resp.Header.Get(StageHeader)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if got != StageUnresolved {
			t.Errorf("%s: %s = %q, want %q", tc.name, StageHeader, got, StageUnresolved)
		}
	}
}

// servedIsolated is a module of mutually isolated functions (private
// arrays, own outputs) so a one-function edit perturbs exactly one
// section. Mirrors the internal/inc fixture.
const servedIsolated = `
void f() {
  int a[8];
  int i = 0;
  while (i < 48) { a[i % 8] = i * 3 + 1; i = i + 1; }
  int j = 0;
  while (j < 8) { output(a[j]); j = j + 1; }
}
void g() {
  int b[6];
  int i = 0;
  while (i < 36) { b[i % 6] = i * 5 + 2; i = i + 1; }
  int j = 0;
  while (j < 6) { output(b[j]); j = j + 1; }
}
int main() {
  f();
  g();
  return 0;
}
`

// TestIncrementalDaemon is the daemon-side acceptance check: with the
// incremental tier enabled, analyzing a module after a single-function
// edit recomputes only that function's section — proven by the reply's
// stage tier, its section stats, and the epvf_inc_sections_recomputed
// metric moving by exactly one.
func TestIncrementalDaemon(t *testing.T) {
	reg := obs.NewRegistry()
	s := startDaemonConfig(t, Config{CacheDir: t.TempDir(), Incremental: true, Registry: reg})
	c := NewClient(s.Addr())

	m, err := lang.Compile("prog", servedIsolated)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := c.Analyze(ir.Print(m))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stage != StageComputed {
		t.Fatalf("cold stage = %s, want computed", cold.Stage)
	}
	if cold.Sections == nil || cold.Sections.Reused != 0 || cold.Sections.Recomputed != cold.Sections.Total {
		t.Fatalf("cold sections = %+v, want all recomputed", cold.Sections)
	}

	warm, err := c.Analyze(ir.Print(m))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stage != StageSummary || warm.Sections != nil {
		t.Fatalf("warm reply: stage=%s sections=%+v, want summary-cache with no sections", warm.Stage, warm.Sections)
	}

	recomputedBefore := reg.Counter("epvf_inc_sections_recomputed_total").Value()

	edited := strings.Replace(servedIsolated, "i * 3 + 1", "i * 3 + 2", 1)
	m2, err := lang.Compile("prog", edited)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := c.Analyze(ir.Print(m2))
	if err != nil {
		t.Fatal(err)
	}
	if reply.Stage != StageIncremental || !reply.CacheHit {
		t.Fatalf("edited reply: stage=%s hit=%v, want incremental hit", reply.Stage, reply.CacheHit)
	}
	if reply.Sections == nil {
		t.Fatal("edited reply has no section stats")
	}
	if reply.Sections.Recomputed != 1 || len(reply.Sections.RecomputedNames) != 1 || reply.Sections.RecomputedNames[0] != "f" {
		t.Fatalf("edited sections = %+v, want exactly [f] recomputed", reply.Sections)
	}
	if reply.Sections.Reused != reply.Sections.Total-1 {
		t.Fatalf("edited sections = %+v, want all but one reused", reply.Sections)
	}
	if d := reg.Counter("epvf_inc_sections_recomputed_total").Value() - recomputedBefore; d != 1 {
		t.Fatalf("epvf_inc_sections_recomputed_total moved by %d, want 1", d)
	}

	// Composed result must match a from-scratch local analysis exactly.
	a, golden, err := epvf.AnalyzeModule(m2, epvf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	local := Summarize(m2.Name, a, golden.DynInstrs)
	if got, want := summaryScalars(reply.Summary), summaryScalars(local); !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental daemon summary diverges from local:\nlocal  %+v\ndaemon %+v", want, got)
	}
}
