package tsdb

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// alertHarness is a registry+DB pair with a gauge the tests drive.
type alertHarness struct {
	clk *fakeClock
	reg *obs.Registry
	db  *DB
	g   *obs.Gauge
}

func newAlertHarness(t *testing.T) *alertHarness {
	t.Helper()
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	db := New(reg, clk, Config{Interval: time.Second, Capacity: 64})
	return &alertHarness{clk: clk, reg: reg, db: db, g: reg.Gauge("depth")}
}

// step sets the gauge, advances one second, and scrapes.
func (h *alertHarness) step(v float64) {
	h.clk.t += time.Second
	h.g.Set(v)
	h.db.Scrape()
}

func TestAlertLifecycleWithFor(t *testing.T) {
	h := newAlertHarness(t)
	var events []AlertEvent
	a := h.db.AddAlert(AlertRule{
		Name:      "depth-high",
		Series:    "depth",
		Threshold: 10,
		For:       2 * time.Second,
		OnEvent:   func(ev AlertEvent) { events = append(events, ev) },
	})
	if a == nil {
		t.Fatal("AddAlert returned nil")
	}

	h.step(5) // t=1s: below threshold
	if got := a.State(); got != AlertInactive {
		t.Fatalf("state after clear sample = %v, want inactive", got)
	}
	h.step(12) // t=2s: breach → pending
	if got := a.State(); got != AlertPending {
		t.Fatalf("state after first breach = %v, want pending", got)
	}
	h.step(15) // t=3s: held 1s < For
	if got := a.State(); got != AlertPending {
		t.Fatalf("state mid hold-down = %v, want pending", got)
	}
	h.step(20) // t=4s: held 2s >= For → firing
	if got := a.State(); got != AlertFiring {
		t.Fatalf("state after hold-down = %v, want firing", got)
	}
	h.step(11) // t=5s: still breaching
	h.step(3)  // t=6s: clear → resolved
	if got := a.State(); got != AlertInactive {
		t.Fatalf("state after clear = %v, want inactive", got)
	}

	incs := a.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1", len(incs))
	}
	inc := incs[0]
	if inc.Start != 2*time.Second || inc.FiredAt != 4*time.Second || inc.End != 6*time.Second {
		t.Fatalf("incident times = %+v", inc)
	}
	if inc.Peak != 20 || inc.Evals != 4 {
		t.Fatalf("incident peak/evals = %v/%d, want 20/4", inc.Peak, inc.Evals)
	}

	// Transition events: pending, firing, resolved (with incident).
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if events[0].State != AlertPending || events[1].State != AlertFiring || events[2].State != AlertInactive {
		t.Fatalf("event states = %v %v %v", events[0].State, events[1].State, events[2].State)
	}
	if events[2].Incident == nil || events[2].Incident.Peak != 20 {
		t.Fatalf("resolution incident = %+v", events[2].Incident)
	}

	// State series recorded 1 (pending), 2 (firing), 0 (resolved).
	samples := h.db.Samples("alert:state", 0, time.Hour, obs.L("alert", "depth-high"))
	want := []Sample{{2 * time.Second, 1}, {4 * time.Second, 2}, {6 * time.Second, 0}}
	if len(samples) != len(want) {
		t.Fatalf("alert:state samples = %v, want %v", samples, want)
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Fatalf("alert:state[%d] = %v, want %v", i, samples[i], want[i])
		}
	}

	// Counters moved once each (increments made during tick N's alert
	// pass are sampled by tick N+1's scrape).
	h.step(3)
	for _, name := range []string{"alert_pending_total", "alert_firing_total", "alert_resolved_total"} {
		if s, ok := h.db.Latest(name, obs.L("alert", "depth-high")); !ok || s.V != 1 {
			t.Fatalf("%s = %+v ok=%v, want 1", name, s, ok)
		}
	}
}

func TestAlertFiresImmediatelyWithoutFor(t *testing.T) {
	h := newAlertHarness(t)
	a := h.db.AddAlert(AlertRule{Name: "hot", Series: "depth", Threshold: 1})
	h.step(2)
	if got := a.State(); got != AlertFiring {
		t.Fatalf("state = %v, want firing on first breach", got)
	}
	h.step(0)
	incs := a.Incidents()
	if len(incs) != 1 || incs[0].Start != incs[0].FiredAt {
		t.Fatalf("incidents = %+v, want Start==FiredAt", incs)
	}
	if incs[0].Evals != 1 {
		t.Fatalf("evals = %d, want 1", incs[0].Evals)
	}
}

func TestAlertPendingCancelledLeavesNoIncident(t *testing.T) {
	h := newAlertHarness(t)
	a := h.db.AddAlert(AlertRule{Name: "hot", Series: "depth", Threshold: 10, For: 5 * time.Second})
	h.step(12)
	if a.State() != AlertPending {
		t.Fatal("want pending")
	}
	h.step(1) // clears before For elapses
	if a.State() != AlertInactive {
		t.Fatal("want inactive after cancelled pending")
	}
	if n := len(a.Incidents()); n != 0 {
		t.Fatalf("incidents = %d, want 0 (cancelled pending is not an incident)", n)
	}
	if s, ok := h.db.Latest("alert_firing_total", obs.L("alert", "hot")); !ok || s.V != 0 {
		t.Fatalf("alert_firing_total = %+v, want 0", s)
	}
}

func TestAlertKeepFiring(t *testing.T) {
	h := newAlertHarness(t)
	a := h.db.AddAlert(AlertRule{
		Name: "hot", Series: "depth", Threshold: 10,
		KeepFiring: 3 * time.Second,
	})
	h.step(12) // t=1: firing
	h.step(1)  // t=2: clear, keep-firing countdown starts
	h.step(1)  // t=3: 1s into countdown
	if a.State() != AlertFiring {
		t.Fatal("keep-firing should hold the alert active")
	}
	h.step(11) // t=4: re-breach resets the countdown
	h.step(1)  // t=5: countdown restarts
	h.step(1)  // t=6
	h.step(1)  // t=7
	h.step(1)  // t=8: now-clearAt = 3s >= KeepFiring → resolved
	if a.State() != AlertInactive {
		t.Fatalf("state = %v, want resolved after keep-firing expiry", a.State())
	}
	incs := a.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1 (keep-firing bridges the gap)", len(incs))
	}
	if incs[0].End != 8*time.Second {
		t.Fatalf("incident end = %v, want 8s", incs[0].End)
	}
}

func TestAlertMultiWindowRequiresAllWindows(t *testing.T) {
	h := newAlertHarness(t)
	a := h.db.AddAlert(AlertRule{
		Name: "burn", Series: "depth", Fn: "avg",
		Windows:   []time.Duration{2 * time.Second, 6 * time.Second},
		Threshold: 10,
	})
	// Long stretch of low values, then a short spike: the 2s window
	// breaches but the 6s average stays below threshold.
	for i := 0; i < 6; i++ {
		h.step(1)
	}
	h.step(30) // t=7: avg(2s)=15.5 ≥ 10, avg(6s)≈5.8 < 10
	if a.State() != AlertInactive {
		t.Fatal("short-window spike alone must not fire a multi-window rule")
	}
	// Sustained breach pushes both windows over.
	for i := 0; i < 6; i++ {
		h.step(30)
	}
	if a.State() != AlertFiring {
		t.Fatal("sustained breach should fire once all windows breach")
	}
}

func TestAlertBelowRule(t *testing.T) {
	h := newAlertHarness(t)
	a := h.db.AddAlert(AlertRule{
		Name: "stall", Series: "depth", Threshold: 2, Below: true,
	})
	h.step(10)
	if a.State() != AlertInactive {
		t.Fatal("value above a Below threshold must stay inactive")
	}
	h.step(1)
	if a.State() != AlertFiring {
		t.Fatal("value at/below a Below threshold should fire")
	}
	h.step(0.5) // worse (lower) → new peak
	h.step(10)
	incs := a.Incidents()
	if len(incs) != 1 || incs[0].Peak != 0.5 {
		t.Fatalf("incidents = %+v, want one with peak 0.5 (most-breaching low)", incs)
	}
}

func TestAlertFlipsFn(t *testing.T) {
	h := newAlertHarness(t)
	a := h.db.AddAlert(AlertRule{
		Name: "flap", Series: "depth", Fn: "flips",
		Windows:   []time.Duration{20 * time.Second},
		Threshold: 3,
	})
	// Monotonic ramp: no direction changes.
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.step(v)
	}
	if a.State() != AlertInactive {
		t.Fatal("monotonic sequence has no flips")
	}
	// Oscillation: 5→2→6→1→7 is 3 more direction changes... each
	// down-up pair adds two flips.
	for _, v := range []float64{2, 6, 1, 7} {
		h.step(v)
	}
	if a.State() != AlertFiring {
		t.Fatal("oscillating sequence should trip the flips rule")
	}
}

// A scrape-driven rule whose window is longer than the ring grows the
// scraped series' ring when it binds, so oscillations 520–600 s back
// still count in a 10 min window over a 512-sample, 1 s ring.
func TestAlertWindowLongerThanRing(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	db := New(reg, clk, Config{Interval: time.Second, Capacity: 512})
	g := reg.Gauge("blocks")
	a := db.AddAlert(AlertRule{
		Name: "scale-flap", Series: "blocks", Fn: "flips",
		Windows: []time.Duration{10 * time.Minute}, Threshold: 5,
	})
	for i := 1; i <= 600; i++ {
		clk.t = time.Duration(i) * time.Second
		v := 4.0
		if i <= 80 {
			v = float64(1 + i%2)
		}
		g.Set(v)
		db.Scrape()
	}
	if st := a.State(); st != AlertFiring {
		t.Fatalf("state %v at 600 s, want firing: flips 520–600 s back are inside the 10 min window", st)
	}
}

func TestAlertNoDataNeverFiresAndVanishedDataResolves(t *testing.T) {
	h := newAlertHarness(t)
	a := h.db.AddAlert(AlertRule{
		Name: "ghost", Series: "missing", Threshold: 0,
	})
	h.step(1)
	if a.State() != AlertInactive {
		t.Fatal("rule over a missing series must stay inactive")
	}

	// A windowed rule whose series goes quiet: samples age out of the
	// window → evaluation loses data → the alert resolves rather than
	// latching forever.
	ev := h.db.EventSeries("pulse", 8)
	b := h.db.AddAlert(AlertRule{
		Name: "pulse-high", Series: "pulse", Fn: "avg",
		Windows: []time.Duration{2 * time.Second}, Threshold: 5,
	})
	ev.Append(h.clk.t, 10)
	h.step(1)
	if b.State() != AlertFiring {
		t.Fatal("want firing while the window holds the sample")
	}
	h.step(1)
	h.step(1)
	h.step(1) // window has slid past the lone sample
	if b.State() != AlertInactive {
		t.Fatalf("state = %v, want resolved once the window empties", b.State())
	}
	if n := len(b.Incidents()); n != 1 {
		t.Fatalf("incidents = %d, want 1", n)
	}
}

func TestAlertManualObserveAndResolve(t *testing.T) {
	h := newAlertHarness(t)
	var events []AlertEvent
	a := h.db.AddAlert(AlertRule{
		Name: "burn", Labels: []obs.Label{obs.L("app", "x")},
		Threshold: 1,
		OnEvent:   func(ev AlertEvent) { events = append(events, ev) },
	})
	// Event-driven rules are ignored by scrapes.
	h.step(99)
	if a.State() != AlertInactive {
		t.Fatal("scrape must not evaluate an event-driven rule")
	}
	a.Observe(1500*time.Millisecond, 2.5)
	if a.State() != AlertFiring {
		t.Fatal("Observe breach should fire")
	}
	a.Observe(1600*time.Millisecond, 3.5) // peak
	a.Observe(1700*time.Millisecond, 1.2)
	// Force-resolve mid-flight (run-end flush).
	a.Resolve(2 * time.Second)
	incs := a.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1", len(incs))
	}
	if incs[0].Start != 1500*time.Millisecond || incs[0].End != 2*time.Second {
		t.Fatalf("incident = %+v", incs[0])
	}
	if incs[0].Peak != 3.5 || incs[0].Evals != 3 {
		t.Fatalf("peak/evals = %v/%d, want 3.5/3", incs[0].Peak, incs[0].Evals)
	}
	// Observe advances LastTime so wall-clock-side queries see it.
	if got := h.db.LastTime(); got != 2*time.Second {
		t.Fatalf("LastTime = %v, want 2s", got)
	}
	if len(events) != 2 || events[1].Incident == nil {
		t.Fatalf("events = %+v", events)
	}
}

// The OnEvent callback runs outside the DB lock: it can query the DB
// and Observe other alerts without deadlocking, and chained events
// still deliver exactly once.
func TestAlertEventDeliveredOutsideLock(t *testing.T) {
	h := newAlertHarness(t)
	var chained *Alert
	var order []string
	h.db.AddAlert(AlertRule{
		Name: "first", Series: "depth", Threshold: 10,
		OnEvent: func(ev AlertEvent) {
			order = append(order, "first:"+ev.State.String())
			if _, ok := h.db.Latest("depth"); !ok {
				t.Error("OnEvent could not query the DB")
			}
			chained.Observe(ev.At, ev.Value) // re-enters the engine
		},
	})
	chained = h.db.AddAlert(AlertRule{
		Name: "second", Threshold: 10,
		OnEvent: func(ev AlertEvent) { order = append(order, "second:"+ev.State.String()) },
	})
	h.step(20)
	want := []string{"first:firing", "second:firing"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("delivery order = %v, want %v", order, want)
	}
}

func TestAlertStatusesDeterministicOrder(t *testing.T) {
	h := newAlertHarness(t)
	h.db.AddAlert(AlertRule{Name: "b", Series: "depth", Threshold: 100})
	h.db.AddAlert(AlertRule{Name: "a", Labels: []obs.Label{obs.L("app", "y")}, Threshold: 1})
	h.db.AddAlert(AlertRule{Name: "a", Labels: []obs.Label{obs.L("app", "x")}, Threshold: 1})
	h.step(5)
	sts := h.db.AlertStatuses()
	if len(sts) != 3 {
		t.Fatalf("statuses = %d, want 3", len(sts))
	}
	got := make([]string, len(sts))
	for i, st := range sts {
		got[i] = st.Name + "{" + labelKey(st.Labels) + "}"
	}
	want := []string{"a{app=x}", "a{app=y}", "b{}"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("status order = %v, want %v", got, want)
		}
	}
}

func TestAlertCountsAndWriteHistory(t *testing.T) {
	h := newAlertHarness(t)
	h.db.AddAlert(AlertRule{Name: "hot", Series: "depth", Threshold: 10})
	h.db.AddAlert(AlertRule{Name: "warm", Series: "depth", Threshold: 5, For: time.Hour})
	h.step(20) // hot fires; warm pending
	p, f := h.db.AlertCounts()
	if p != 1 || f != 1 {
		t.Fatalf("counts = pending %d firing %d, want 1/1", p, f)
	}
	h.step(1) // hot resolves; warm pending cancelled
	h.step(20)

	var buf bytes.Buffer
	if err := WriteAlertHistory(&buf, "cell=x ", h.db); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"cell=x alerts: rules=2 incidents=1 firing=1 pending=1\n",
		"cell=x alert hot state=resolved start=1s fired=1s end=2s peak=20 evals=1\n",
		"cell=x alert hot state=firing since=3s value=20 evals=1\n",
		"cell=x alert warm state=pending since=3s value=20 evals=1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("history missing %q; got:\n%s", want, out)
		}
	}
}

func TestAlertHistoryCapBounds(t *testing.T) {
	h := newAlertHarness(t)
	a := h.db.AddAlert(AlertRule{Name: "churn", Threshold: 1})
	for i := 0; i < alertHistoryCap+5; i++ {
		base := time.Duration(i) * 2 * time.Second
		a.Observe(base, 2)
		a.Observe(base+time.Second, 0)
	}
	incs := a.Incidents()
	if len(incs) != alertHistoryCap {
		t.Fatalf("incidents = %d, want capped at %d", len(incs), alertHistoryCap)
	}
	// Oldest were dropped: the first retained incident is the 6th.
	if incs[0].Start != 5*2*time.Second {
		t.Fatalf("oldest retained start = %v, want 10s", incs[0].Start)
	}
	sts := h.db.AlertStatuses()
	if sts[0].Dropped != 5 {
		t.Fatalf("dropped = %d, want 5", sts[0].Dropped)
	}
	var buf bytes.Buffer
	if err := WriteAlertHistory(&buf, "", h.db); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dropped=5") {
		t.Fatal("history should surface the drop count")
	}
}

func TestAddAlertRejectsBadRules(t *testing.T) {
	h := newAlertHarness(t)
	if a := h.db.AddAlert(AlertRule{Series: "depth"}); a != nil {
		t.Fatal("nameless rule should be rejected")
	}
	if a := h.db.AddAlert(AlertRule{Name: "x", Series: "depth", Fn: "median"}); a != nil {
		t.Fatal("unknown fn should be rejected")
	}
	var nilDB *DB
	if a := nilDB.AddAlert(AlertRule{Name: "x"}); a != nil {
		t.Fatal("nil DB should return nil")
	}
	// All alert methods are nil-safe.
	var nilA *Alert
	nilA.Observe(0, 0)
	nilA.Resolve(0)
	if nilA.State() != AlertInactive || nilA.Incidents() != nil {
		t.Fatal("nil alert accessors should be inert")
	}
}
