package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/dist"
	"repro/internal/obs/alert"
)

// TestDashboardStallFiresAndResolves drives the live telemetry surface
// of `campaign serve` end to end. The coordinator starts with no worker,
// so its shards stay pending: /dashboard must render and /events stream,
// coordinator_stall must fire, /healthz must report degraded, and the
// firing must capture a pprof bundle into the cache under
// obs-profile-v1. A worker then joins; the stall must resolve (a
// firing→ok transition on /alerts) while it works, and the merged log
// must come out complete.
//
// Before the worker joins, the test leases one shard itself and never
// delivers it. The campaign then cannot finish before that lease expires
// after -lease-ttl, so the coordinator still serves /alerts for a few of
// the alert engine's one-second ticks after the worker's first merge,
// however fast the worker runs.
func TestDashboardStallFiresAndResolves(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	merged := filepath.Join(dir, "merged.jsonl")
	coordURL, serveOut, serveErr := startCoordinator(t, []string{"-bench", "mm", "-runs", "200", "-shard-size", "25",
		"-log", merged, "-lease-ttl", "4s", "-cache-dir", cacheDir, "-stall-after", "1s"})
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(coordURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, body
	}
	alerts := func() alert.Summary {
		t.Helper()
		var s alert.Summary
		if _, body := get("/alerts"); json.Unmarshal(body, &s) != nil {
			t.Fatalf("/alerts is not JSON:\n%s", body)
		}
		return s
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !ok(); time.Sleep(50 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s\nserve output:\n%s", what, serveOut.String())
			}
		}
	}

	code, page := get("/dashboard")
	doc := strings.TrimSpace(string(page))
	if code != http.StatusOK || !strings.HasPrefix(doc, "<!DOCTYPE html>") || !strings.HasSuffix(doc, "</html>") ||
		!strings.Contains(doc, "dash-campaign") || !strings.Contains(doc, "dash-alerts") {
		t.Errorf("/dashboard is not a well-formed dashboard page (status %d, %d bytes)", code, len(page))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, coordURL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	sawEvent := false
	for sc := bufio.NewScanner(resp.Body); !sawEvent && sc.Scan(); {
		sawEvent = strings.HasPrefix(sc.Text(), "event:")
	}
	cancel()
	resp.Body.Close()
	if !sawEvent {
		t.Error("/events streamed no SSE event")
	}

	firing := func(rule string) bool {
		for _, name := range alerts().Firing {
			if name == rule {
				return true
			}
		}
		return false
	}
	waitFor("coordinator_stall to fire", func() bool { return firing("coordinator_stall") })
	if _, body := get("/healthz"); !strings.Contains(string(body), `"degraded"`) {
		t.Errorf("/healthz is not degraded while coordinator_stall fires:\n%s", body)
	}
	profiles := filepath.Join(cacheDir, "epvf-cache-v1", alert.ProfileKind)
	waitFor("a profile bundle in the cache", func() bool {
		entries, _ := os.ReadDir(profiles)
		return len(entries) > 0
	})

	var plan campaign.Plan
	if _, body := get(dist.PathPlan); json.Unmarshal(body, &plan) != nil {
		t.Fatalf("%s is not a plan:\n%s", dist.PathPlan, body)
	}
	var lease dist.LeaseResponse
	// Register and lease take the same body.
	for _, path := range []string{dist.PathRegister, dist.PathLease} {
		body, _ := json.Marshal(dist.LeaseRequest{Worker: "idle", PlanID: plan.ID})
		resp, err := http.Post(coordURL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&lease)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("%s: status %d, %v", path, resp.StatusCode, err)
		}
	}
	if lease.Lease == "" {
		t.Fatalf("no lease granted: %+v", lease)
	}

	joined := time.Now()
	workErr := make(chan error, 1)
	var workOut syncWriter
	go func() {
		workErr <- run([]string{"work", "-coordinator", coordURL, "-bench", "mm", "-name", "w0", "-workers", "1", "-q"}, &workOut)
	}()
	resolved := func() bool {
		for _, tr := range alerts().Transitions {
			if tr.Rule == "coordinator_stall" && tr.From == alert.StateFiring && tr.To == alert.StateOK {
				return true
			}
		}
		return false
	}
	waitFor("coordinator_stall to resolve", resolved)
	resolvedAfter := time.Since(joined)

	if err := <-workErr; err != nil {
		t.Fatalf("work: %v\n%s", err, workOut.String())
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v\n%s", err, serveOut.String())
	}
	var out strings.Builder
	if err := run([]string{"status", "-log", merged}, &out); err != nil {
		t.Fatalf("status: %v", err)
	}
	if !strings.Contains(out.String(), "200/200") {
		t.Errorf("merged log incomplete:\n%s", out.String())
	}
	t.Logf("stall resolved %v after the worker joined; the worker finished after %v",
		resolvedAfter.Round(time.Millisecond), time.Since(joined).Round(time.Millisecond))
}
