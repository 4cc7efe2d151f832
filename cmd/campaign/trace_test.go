package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// TestCrossProcessTrace runs one campaign through every process that
// can touch it, in one test binary: an analysis daemon (`epvf serve`,
// proc epvf-serve), a coordinator (`campaign serve`), a worker
// goroutine (`campaign work -name worker-a`) and a `campaign run
// -server` that publishes the merged log to the daemon. Each has its own
// tracer and proc label. Because they all derive the trace and span IDs
// from the plan, their spans must form one rooted tree with no orphans;
// the daemon's /debug/flight must be non-empty; and `campaign trace
// -html` must write a well-formed timeline.
func TestCrossProcessTrace(t *testing.T) {
	tracer := obs.NewTracer(nil)
	tracer.SetProc("epvf-serve")
	daemon, err := serve.New(serve.Config{Addr: "127.0.0.1:0", CacheDir: t.TempDir(), Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	daemon.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		daemon.Shutdown(ctx)
	}()

	dir := t.TempDir()
	merged := filepath.Join(dir, "merged.jsonl")
	common := []string{"-bench", "mm", "-runs", "60", "-shard-size", "20", "-log", merged}
	coordURL, serveOut, serveErr := startCoordinator(t, append([]string{"-lease-ttl", "5s"}, common...))
	workErr := make(chan error, 1)
	var workOut syncWriter
	go func() {
		workErr <- run([]string{"work", "-coordinator", coordURL, "-bench", "mm", "-name", "worker-a", "-workers", "2"}, &workOut)
	}()
	if err := <-workErr; err != nil {
		t.Fatalf("work: %v\n%s", err, workOut.String())
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}

	// Publishing the completed log makes the daemon's handling spans join
	// the campaign trace; the run stitches them back into the log.
	var out strings.Builder
	if err := run(append([]string{"run", "-q", "-server", daemon.Addr()}, common...), &out); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if !strings.Contains(out.String(), "published log for plan ") {
		t.Fatalf("run -server did not publish:\n%s", out.String())
	}

	resp, err := http.Get("http://" + daemon.Addr() + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var flight obs.FlightView
	if err := json.Unmarshal(body, &flight); err != nil {
		t.Fatalf("/debug/flight: %v\n%s", err, body)
	}
	daemonSpans := 0
	for _, rec := range flight.RecentSpans {
		if rec.Proc == "epvf-serve" {
			daemonSpans++
		}
	}
	if flight.SpansTotal == 0 || daemonSpans == 0 {
		t.Errorf("/debug/flight holds %d spans, %d from epvf-serve; want both non-zero", flight.SpansTotal, daemonSpans)
	}

	out.Reset()
	if err := run([]string{"trace", "-log", merged}, &out); err != nil {
		t.Fatalf("trace: %v", err)
	}
	var headers []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "trace ") {
			headers = append(headers, line)
		}
	}
	if len(headers) != 1 {
		t.Fatalf("want one span tree, got %d:\n%s", len(headers), out.String())
	}
	t.Log(headers[0])
	for _, want := range []string{"coordinator", "worker-a", "epvf-serve", " 0 orphans"} {
		if !strings.Contains(headers[0], want) {
			t.Errorf("trace header %q lacks %q", headers[0], want)
		}
	}

	htmlPath := filepath.Join(dir, "trace.html")
	if err := run([]string{"trace", "-log", merged, "-html", htmlPath}, &out); err != nil {
		t.Fatalf("trace -html: %v", err)
	}
	html, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.TrimSpace(string(html))
	if !strings.HasPrefix(doc, "<!DOCTYPE html>") || !strings.HasSuffix(doc, "</html>") ||
		!strings.Contains(doc, `class="tl"`) {
		t.Errorf("trace.html is not a well-formed timeline (%d bytes)", len(html))
	}
}
