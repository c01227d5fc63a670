package serve

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cucc/internal/obs"
	"cucc/internal/trace"
)

// TestEventsPage: /events renders the journal window as text and JSON, and
// 404s when the journal is disabled.
func TestEventsPage(t *testing.T) {
	srv := NewServer(Config{Executors: 1, Nodes: 2, Workers: 1, Journal: obs.NewJournal(0)})
	defer srv.Drain()
	if resp := srv.Submit(&Request{Tenant: "evt", Program: "VecAdd", Nodes: 2}); resp.Status != StatusOK {
		t.Fatalf("job failed: %q %q", resp.Status, resp.Err)
	}

	rr := httptest.NewRecorder()
	srv.HTTPMux().ServeHTTP(rr, httptest.NewRequest("GET", "/events", nil))
	body := rr.Body.String()
	for _, want := range []string{"events retained", obs.EvAdmit, obs.EvDispatch, obs.EvComplete, "evt"} {
		if !strings.Contains(body, want) {
			t.Errorf("/events missing %q:\n%s", want, body)
		}
	}

	rr = httptest.NewRecorder()
	srv.HTTPMux().ServeHTTP(rr, httptest.NewRequest("GET", "/events?format=json", nil))
	evs, err := trace.ParseEvents(rr.Body.Bytes())
	if err != nil {
		t.Fatalf("/events?format=json did not parse: %v\n%s", err, rr.Body.String())
	}
	if len(evs) == 0 {
		t.Error("/events?format=json returned no events")
	}

	bare := NewServer(Config{Executors: 1, Nodes: 1, Workers: 1})
	defer bare.Drain()
	rr = httptest.NewRecorder()
	bare.HTTPMux().ServeHTTP(rr, httptest.NewRequest("GET", "/events", nil))
	if rr.Code != 404 {
		t.Errorf("/events without a journal: status %d, want 404", rr.Code)
	}
}

// TestSLOPage: /slo renders tenant rows with finite burns and attainments in
// [0, 1] in both formats, applying the per-tenant objectives.
func TestSLOPage(t *testing.T) {
	srv := NewServer(Config{
		Executors: 1, Nodes: 2, Workers: 1,
		Journal: obs.NewJournal(0),
		SLO: obs.SLOConfig{
			Default: obs.Objective{LatencyMs: 250},
			Tenants: map[string]obs.Objective{"slow-lane": {LatencyMs: 5000, Target: 0.9}},
		},
		SampleEvery: time.Hour, // sampler exists; tests drive it manually
	})
	defer srv.Drain()
	for _, tenant := range []string{"fast-lane", "slow-lane"} {
		if resp := srv.Submit(&Request{Tenant: tenant, Program: "VecAdd", Nodes: 2}); resp.Status != StatusOK {
			t.Fatalf("%s job failed: %q %q", tenant, resp.Status, resp.Err)
		}
	}
	srv.Sampler().SampleNow()

	rr := httptest.NewRecorder()
	srv.HTTPMux().ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	body := rr.Body.String()
	for _, want := range []string{"fast-lane", "slow-lane", "250ms", "5000ms", "recent windows", "qps"} {
		if !strings.Contains(body, want) {
			t.Errorf("/slo missing %q:\n%s", want, body)
		}
	}

	rr = httptest.NewRecorder()
	srv.HTTPMux().ServeHTTP(rr, httptest.NewRequest("GET", "/slo?format=json", nil))
	rows, err := obs.ParseSLO(rr.Body.Bytes())
	if err != nil {
		t.Fatalf("/slo?format=json did not parse: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d SLO rows, want 2: %+v", len(rows), rows)
	}
	for _, r := range rows {
		if math.IsInf(r.BudgetBurn, 0) || math.IsNaN(r.BudgetBurn) || r.BudgetBurn < 0 {
			t.Errorf("tenant %s: burn %v not finite and non-negative", r.Tenant, r.BudgetBurn)
		}
		if r.Attainment < 0 || r.Attainment > 1 {
			t.Errorf("tenant %s: attainment %v outside [0, 1]", r.Tenant, r.Attainment)
		}
		if r.Requests != 1 || r.Completed != 1 {
			t.Errorf("tenant %s accounting: %+v", r.Tenant, r)
		}
	}
	for _, r := range rows {
		if r.Tenant == "slow-lane" && r.Objective.LatencyMs != 5000 {
			t.Errorf("slow-lane objective not applied: %+v", r.Objective)
		}
	}
}

// TestHealthzDrain: /healthz serves 200 while up and flips to 503 the
// moment graceful drain begins.
func TestHealthzDrain(t *testing.T) {
	srv := NewServer(Config{Executors: 1, Nodes: 1, Workers: 1, Journal: obs.NewJournal(0)})
	mux := srv.HTTPMux()

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "ok") {
		t.Errorf("/healthz while serving: %d %q, want 200 ok", rr.Code, rr.Body.String())
	}

	srv.Drain()
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 503 || !strings.Contains(rr.Body.String(), "draining") {
		t.Errorf("/healthz after drain: %d %q, want 503 draining", rr.Code, rr.Body.String())
	}
	// The drain itself is journaled.
	var sawDrain bool
	for _, ev := range srv.Journal().Events() {
		if ev.Phase == obs.EvDrain {
			sawDrain = true
		}
	}
	if !sawDrain {
		t.Error("drain left no journal event")
	}
}
