package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// FuzzCoordinatorBodies drives Coordinator.ServeHTTP with arbitrary
// register, lease, heartbeat and spans bodies. Each exec starts a fresh
// coordinator with a durable log and first leases a shard through the
// handler, so a body can name that live lease: "$LEASE" in it becomes the
// lease ID. The coordinator must answer with a 4xx, or with a 200 whose
// body decodes as the endpoint's reply, and must never panic; after it
// accepts spans, its log must still reopen.
func FuzzCoordinatorBodies(f *testing.F) {
	g := golden(f, kernelSrc)
	plan := testPlan(f, g, 8, 4)
	register, _ := json.Marshal(RegisterRequest{Worker: "w", PlanID: plan.ID})
	lease, _ := json.Marshal(LeaseRequest{Worker: "w", PlanID: plan.ID})
	spans, _ := json.Marshal([]obs.SpanRecord{{
		Name: "shard 0", TraceID: campaign.TraceContext(plan.ID).TraceID,
		SpanID: campaign.ShardSpanID(plan.ID, 0), Proc: "w", Start: time.Unix(1, 0), WallNS: 5,
		Counters: map[string]int64{"runs": 4},
	}})
	f.Add(uint8(0), register)
	f.Add(uint8(0), []byte(`{"worker":"w","plan_id":"stale"}`))
	f.Add(uint8(1), lease)
	f.Add(uint8(1), []byte(`{"worker":`))
	f.Add(uint8(2), []byte(`{"worker":"w","lease":"$LEASE"}`))
	f.Add(uint8(2), []byte(`{"worker":"w","lease":"gone"}`))
	f.Add(uint8(3), spans)
	f.Add(uint8(3), []byte(`[]`))
	f.Add(uint8(3), []byte(`[{"name":"x","span":"s","depth":-1,"wall_ns":-5,"start":"0001-01-01T00:00:00Z"}]`))
	endpoints := []struct {
		path  string
		reply func() any
	}{
		{PathRegister, func() any { return new(RegisterResponse) }},
		{PathLease, func() any { return new(LeaseResponse) }},
		{PathHeartbeat, func() any { return new(map[string]bool) }},
		{PathSpans + "?plan=" + plan.ID, func() any { return new(SpansResponse) }},
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		logPath := filepath.Join(t.TempDir(), "merged.jsonl")
		coord, err := NewCoordinator(CoordinatorConfig{Plan: plan, LogPath: logPath})
		if err != nil {
			t.Fatal(err)
		}
		post := func(path string, body []byte) *httptest.ResponseRecorder {
			rw := httptest.NewRecorder()
			coord.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			return rw
		}
		var granted LeaseResponse
		if rw := post(PathLease, lease); rw.Code != http.StatusOK || json.Unmarshal(rw.Body.Bytes(), &granted) != nil || granted.Lease == "" {
			t.Fatalf("seed lease: %d %s", rw.Code, rw.Body)
		}
		ep := endpoints[int(endpoint)%len(endpoints)]
		rw := post(ep.path, bytes.ReplaceAll(body, []byte("$LEASE"), []byte(granted.Lease)))
		switch {
		case rw.Code >= 400 && rw.Code < 500:
		case rw.Code == http.StatusOK:
			if err := json.Unmarshal(rw.Body.Bytes(), ep.reply()); err != nil {
				t.Fatalf("%s: 200 with a reply that does not decode: %v\n%s", ep.path, err, rw.Body)
			}
		default:
			t.Fatalf("%s: status %d, want 4xx or 200\n%s", ep.path, rw.Code, rw.Body)
		}
		if err := coord.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		log, _, err := campaign.OpenDurableLog(logPath, plan)
		if err != nil {
			t.Fatalf("%s: log does not reopen after status %d: %v", ep.path, rw.Code, err)
		}
		log.Close()
	})
}
