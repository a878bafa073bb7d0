package analyze

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// TestMonitorTSDBMatchesClassic replays one deterministic task-outcome
// stream — two apps, latency-violation bursts that raise and clear
// alerts several times, a pseudo-random sprinkle of failures — through
// a monitor with no db (classic: its alert rules live on a private
// store) and one sharing a run's tsdb, and requires byte-identical
// alert streams and slo_* counters. Only the shared-db monitor may
// leave alert_* families in the collector's registry: the -metrics
// artifact of a run without a tsdb must not change.
func TestMonitorTSDBMatchesClassic(t *testing.T) {
	rules := []Rule{
		{App: "llama", Latency: 10 * ms, Target: 0.9, Window: time.Second},
		{App: "resnet", Latency: 20 * ms, Target: 0.8, Window: 2 * time.Second},
	}

	clk1, clk2 := &tickClock{}, &tickClock{}
	c1, c2 := obs.New(clk1), obs.New(clk2)
	c1.SetScope("unit")
	c2.SetScope("unit")
	m1 := NewMonitor(c1, clk1, rules, nil)
	db := tsdb.New(c2.Metrics(), clk2, tsdb.Config{})
	m2 := NewMonitor(c2, clk2, rules, db)

	// xorshift-ish LCG for a reproducible failure sprinkle.
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	emit := func(id int, app string, start, end time.Duration, status string) {
		for _, c := range []*obs.Collector{c1, c2} {
			c.AddSpan("dfk", "task", "task", 0, start, end,
				obs.Int("task", id),
				obs.String("app", app),
				obs.String("executor", "htex-gpu"),
				obs.String("status", status),
			)
		}
	}
	id := 0
	for i := 0; i < 1200; i++ {
		at := time.Duration(i) * 10 * ms // one task per app every 10ms
		// llama: latency bursts in [2s,3s) and [6s,7s).
		d := 5 * ms
		if (at >= 2*time.Second && at < 3*time.Second) || (at >= 6*time.Second && at < 7*time.Second) {
			d = 50 * ms
		}
		status := "done"
		if next()%97 == 0 {
			status = "failed"
		}
		emit(id, "llama", at, at+d, status)
		id++
		// resnet: a single long failure plateau in [4s,5.5s).
		d = 10 * ms
		if at >= 4*time.Second && at < 5500*ms {
			d = 80 * ms
		}
		emit(id, "resnet", at, at+d, "done")
		id++
	}
	endAt := 1200 * 10 * ms
	clk1.now, clk2.now = endAt, endAt
	m1.Close()
	m2.Close()

	var a1, a2 bytes.Buffer
	if err := WriteAlerts(&a1, c1); err != nil {
		t.Fatalf("WriteAlerts nil db: %v", err)
	}
	if err := WriteAlerts(&a2, c2); err != nil {
		t.Fatalf("WriteAlerts shared db: %v", err)
	}
	if a1.Len() == 0 {
		t.Fatal("no alerts in the nil-db stream — the scenario must exercise the state machine")
	}
	if n := bytes.Count(a1.Bytes(), []byte("\n")); n < 3 {
		t.Fatalf("want >= 3 alert windows across apps, got %d:\n%s", n, a1.Bytes())
	}
	if !bytes.Equal(a1.Bytes(), a2.Bytes()) {
		t.Fatalf("alert streams differ:\nnil db:\n%s\nshared db:\n%s", a1.Bytes(), a2.Bytes())
	}

	prom := func(c *obs.Collector) (slo, alert string) {
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, c); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		var s, a strings.Builder
		for _, line := range strings.SplitAfter(buf.String(), "\n") {
			if strings.Contains(line, "slo_") {
				s.WriteString(line)
			}
			if strings.Contains(line, "alert_") {
				a.WriteString(line)
			}
		}
		return s.String(), a.String()
	}
	slo1, alert1 := prom(c1)
	slo2, alert2 := prom(c2)
	if !strings.Contains(slo1, "slo_alerts_total") {
		t.Fatalf("slo_alerts_total missing from the nil-db registry:\n%s", slo1)
	}
	if slo1 != slo2 {
		t.Fatalf("slo_* counters differ:\nnil db:\n%s\nshared db:\n%s", slo1, slo2)
	}
	if alert1 != "" {
		t.Fatalf("nil-db monitor leaked alert families into the collector registry:\n%s", alert1)
	}
	if alert2 == "" {
		t.Fatal("shared-db monitor registered no alert_* counters in the run's registry")
	}

	// The shared db holds a queryable control signal; the nil-db monitor
	// has none to offer.
	if s, ok := db.Latest("slo:burn", obs.L("app", "llama")); !ok {
		t.Fatal("slo:burn series not recorded")
	} else if s.T <= 0 {
		t.Fatalf("slo:burn latest at %v", s.T)
	}
	if n, _ := db.EventSeries("slo:burn", 0, obs.L("app", "llama")).CountSince(0); n != 1200 {
		t.Fatalf("slo:burn retained %d samples, want 1200", n)
	}
	if m1.apps["llama"].burnSeries != nil {
		t.Fatal("nil-db monitor created a burn series")
	}

	// The list window reclaims its consumed prefix: after 1200 events
	// with ~100 inside each 1s window, the slice holds at most twice the
	// live window, not the run.
	for _, m := range []*Monitor{m1, m2} {
		st := m.apps["llama"]
		if live := len(st.events) - st.head; len(st.events) > 2*live {
			t.Fatalf("window slice holds %d events for %d live", len(st.events), live)
		}
	}
}
