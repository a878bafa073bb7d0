package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/tsdb"
)

// alerts renders a run collector's SLO alert stream.
func alerts(t *testing.T, c *obs.Collector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := analyze.WriteAlerts(&buf, c); err != nil {
		t.Fatalf("WriteAlerts: %v", err)
	}
	return buf.Bytes()
}

// TestMultiplexTSDBAlertEquality runs one Table-1 cell with the SLO
// monitor in classic mode and again with the tsdb-backed burn windows
// (plus the scrape daemon running), and requires the identical alert
// stream — the acceptance gate that moving burn computation onto tsdb
// changes no observable behavior.
func TestMultiplexTSDBAlertEquality(t *testing.T) {
	const slo = "llama-complete:2s:0.9"
	run := func(db *tsdb.Config) (*MultiplexResult, []byte) {
		res, err := RunMultiplex(MultiplexConfig{
			Mode: ModeTimeshare, Processes: 4, Completions: 8, SLO: slo, TSDB: db,
		})
		if err != nil {
			t.Fatalf("RunMultiplex(tsdb=%v): %v", db != nil, err)
		}
		return res, alerts(t, res.Obs)
	}
	base, baseAlerts := run(nil)
	if len(baseAlerts) == 0 {
		t.Fatal("baseline produced no alerts — the SLO spec must fire for this test to mean anything")
	}
	var gotDB *tsdb.DB
	cfg := MultiplexConfig{
		Mode: ModeTimeshare, Processes: 4, Completions: 8, SLO: slo,
		TSDB:   &tsdb.Config{Interval: time.Second},
		Attach: func(_ *obs.Collector, db *tsdb.DB) { gotDB = db },
	}
	res, err := RunMultiplex(cfg)
	if err != nil {
		t.Fatalf("RunMultiplex tsdb: %v", err)
	}
	dbAlerts := alerts(t, res.Obs)
	if !bytes.Equal(baseAlerts, dbAlerts) {
		t.Fatalf("alert streams differ:\nclassic:\n%s\ntsdb:\n%s", baseAlerts, dbAlerts)
	}
	// The scrape daemon must not perturb the simulation itself.
	if res.Makespan != base.Makespan {
		t.Fatalf("makespan changed with tsdb attached: %v vs %v", res.Makespan, base.Makespan)
	}
	if gotDB == nil {
		t.Fatal("Attach did not receive the tsdb handle")
	}
	// The daemon scraped throughout the run and the burn signal is
	// queryable after it.
	if gotDB.Scrapes() < 2 {
		t.Fatalf("only %d scrapes over a %v run", gotDB.Scrapes(), res.Makespan)
	}
	if _, ok := gotDB.Latest("slo:burn", obs.L("app", "llama-complete")); !ok {
		t.Fatal("slo:burn not recorded in the run's tsdb")
	}
	if _, ok := gotDB.Latest("slo_events_total", obs.L("app", "llama-complete"), obs.L("verdict", "bad")); !ok {
		t.Fatal("scraped registry counters missing from the tsdb")
	}
}

// TestPhaseShiftTSDBAlertEquality is the same gate on the phase-shift
// scenario: bursty two-tenant load, retries riding through backoff —
// the alert stream with tsdb-backed windows must match the classic
// monitor byte for byte.
func TestPhaseShiftTSDBAlertEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("two full phase-shift runs in -short mode")
	}
	const slo = "svc-a:3s:0.9:30s,svc-b:3s:0.9:30s"
	run := func(db *tsdb.Config) []byte {
		res, err := RunPhaseShift(PhaseShiftConfig{
			Mode: ModeMPS, HeavyCompletions: 12, LightCompletions: 3,
			PhaseAt: 30 * time.Second, SLO: slo, TSDB: db,
		})
		if err != nil {
			t.Fatalf("RunPhaseShift(tsdb=%v): %v", db != nil, err)
		}
		return alerts(t, res.Obs)
	}
	base := run(nil)
	if len(base) == 0 {
		t.Fatal("baseline produced no alerts — tighten the SLO spec")
	}
	got := run(&tsdb.Config{Interval: 500 * time.Millisecond})
	if !bytes.Equal(base, got) {
		t.Fatalf("alert streams differ:\nclassic:\n%s\ntsdb:\n%s", base, got)
	}
}
