package main

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"agingpred"
	"agingpred/internal/serve/admin"
)

// TestObsMuxEndpoints exercises the -listen handlers (admin.Mux, shared with
// agingserve) without a listener: the metrics endpoint must speak the
// Prometheus text format and carry the documented series (the instrumented
// packages register them at init), and the health probe must answer
// structured JSON.
func TestObsMuxEndpoints(t *testing.T) {
	mux := admin.Mux(time.Now())

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body := rec.Body.String()
	for _, series := range []string{
		"agingpred_predictions_total",
		"agingpred_drift_trips_total",
		"agingpred_current_epoch",
		"agingpred_fleet_tick_latency_seconds_bucket",
		"# TYPE agingpred_fleet_tick_latency_seconds histogram",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz status %d", rec.Code)
	}
	var health struct {
		Status    string  `json:"status"`
		UptimeSec float64 `json:"uptime_sec"`
		Epoch     int     `json:"epoch"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, rec.Body.String())
	}
	if health.Status != "ok" || health.Epoch < 1 {
		t.Fatalf("/healthz says %+v", health)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/cmdline status %d", rec.Code)
	}
}

// TestStartObsServerBindsAndStops checks the real -listen path (admin.Start)
// with an ephemeral port.
func TestStartObsServerBindsAndStops(t *testing.T) {
	addr, stop, err := admin.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("admin.Start: %v", err)
	}
	defer stop()
	if addr == "" || strings.HasSuffix(addr, ":0") {
		t.Fatalf("unresolved listen address %q", addr)
	}
	// The registry backing the endpoints is the public one.
	if agingpred.Metrics() == nil {
		t.Fatal("nil public registry")
	}
}
