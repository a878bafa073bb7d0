package tsdb

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
)

// This file is the alerting-rules engine: deterministic threshold and
// multi-window rules over the DB's series, evaluated on the virtual
// clock with Prometheus-style pending ("for") and keep-firing
// hold-down semantics. Scrape-driven rules run after every scrape;
// event-driven rules are fed one observation at a time
// through Alert.Observe — the SLO burn monitor drives its per-task
// burn values through that path so its alert boundaries land on event
// times, not scrape ticks.
//
// Every state transition is recorded three ways: an "alert:state"
// series in the DB (0 inactive, 1 pending, 2 firing — queryable like
// any other series), alert_{pending,firing,resolved}_total counters in
// the scraped registry, and a callback (AlertRule.OnEvent) delivered
// outside the DB lock so listeners may emit spans or re-enter the DB.
// Resolved firings accumulate as AlertIncidents — the deterministic
// alert history behind /api/alerts and the end-of-run artifact.
//
// Steady-state evaluation adds no allocations and costs O(1) per
// window: the watched series handle is resolved once and cached, and
// each windowed function keeps sliding state bound to the series
// (window.go) instead of walking the ring. avg rounds the exact window
// sum once; max, flips and rate are bit-identical to a rescan. Binding
// grows a scraped series' ring to hold the rule's longest window.
// Transitions (the only allocating moments) are by definition not
// steady state.

// AlertState is the rule state machine's position.
type AlertState uint8

const (
	// AlertInactive: the condition does not hold (or has no data).
	AlertInactive AlertState = iota
	// AlertPending: the condition holds but has not yet held For long.
	AlertPending
	// AlertFiring: the alert is active.
	AlertFiring
)

func (s AlertState) String() string {
	switch s {
	case AlertPending:
		return "pending"
	case AlertFiring:
		return "firing"
	default:
		return "inactive"
	}
}

// AlertRule declares one alert.
type AlertRule struct {
	// Name identifies the rule, e.g. "slo-burn". Required.
	Name string
	// Labels are the rule's identity labels (joined with Name on the
	// alert:state series, the alert_* counters, and every event).
	Labels []obs.Label
	// Series names the scalar series the rule watches. Empty declares
	// an event-driven rule: the engine never evaluates it at scrape
	// time and values arrive through Alert.Observe instead.
	Series string
	// SeriesLabels are the watched series' labels (default: Labels).
	SeriesLabels []obs.Label
	// Fn is the windowed function evaluated over the watched series:
	// "latest" (default), "avg", "rate", "max", or "flips" — the count
	// of direction changes of the sample sequence inside the window,
	// the oscillation detector behind scale-flap rules.
	Fn string
	// Windows are the evaluation windows. With more than one, the
	// condition must hold over EVERY window — the classic multi-window
	// burn-rate guard (a short window for reactivity, a long one so a
	// blip can't page). Empty means a single whole-history "latest".
	Windows []time.Duration
	// Threshold is the firing bound: the condition holds when the
	// windowed value is >= Threshold (<= when Below is set).
	Threshold float64
	// Below inverts the comparison (fire on low values — stall rules).
	Below bool
	// For is the pending hold-down: the condition must hold this long
	// before the alert fires. Zero fires on the first breach.
	For time.Duration
	// KeepFiring keeps a firing alert active this long after the
	// condition clears; a re-breach resets the countdown. Zero resolves
	// on the first clear evaluation.
	KeepFiring time.Duration
	// OnEvent, when set, receives every state transition. It runs
	// outside the DB lock (same goroutine as the write that caused it),
	// so it may add spans or query the DB, but must stay deterministic.
	OnEvent func(AlertEvent)
}

// AlertEvent is one state transition.
type AlertEvent struct {
	Rule   string
	Labels []obs.Label
	// State is the state entered. AlertInactive with a non-nil Incident
	// is a resolution; with a nil Incident it is a cancelled pending.
	State AlertState
	At    time.Duration
	Value float64
	// Incident carries the completed firing on resolution.
	Incident *AlertIncident
}

// AlertIncident is one completed pending→firing→resolved cycle.
type AlertIncident struct {
	// Start is when the condition first held (the pending start).
	Start time.Duration `json:"start_ns"`
	// FiredAt is when the alert left pending for firing (== Start when
	// For is zero).
	FiredAt time.Duration `json:"fired_ns"`
	// End is when the alert resolved.
	End time.Duration `json:"end_ns"`
	// Peak is the most-breaching value observed while active (largest,
	// or smallest for Below rules).
	Peak float64 `json:"peak"`
	// Evals counts the breaching evaluations while active.
	Evals int `json:"evals"`
}

// alertHistoryCap bounds each rule's retained incident history; older
// incidents are dropped (and counted) past it.
const alertHistoryCap = 1024

// alert fn codes, parsed once at registration.
const (
	alertFnLatest = iota
	alertFnAvg
	alertFnRate
	alertFnMax
	alertFnFlips
)

// Alert is one registered rule's live state. All mutation happens
// under the owning DB's lock, in sim context.
type Alert struct {
	db   *DB
	rule AlertRule
	lkey string // rendered rule labels, the deterministic sort key
	fn   int
	wkey string    // watched-series key (scrape-driven only)
	s    *Series   // resolved watched series, cached
	wins []*window // one per rule window, bound with s (nil for latest)

	state    AlertState
	activeAt time.Duration // pending start of the current cycle
	firedAt  time.Duration
	clearAt  time.Duration // first clear eval while firing (-1: none)
	peak     float64
	evals    int
	lastV    float64
	lastEval time.Duration
	evalOK   bool // last evaluation had data

	stateSeries                  *Series
	cPending, cFiring, cResolved *obs.Counter

	incidents []AlertIncident
	dropped   int
}

// pendingAlertEvent parks a transition until the DB lock is released.
type pendingAlertEvent struct {
	fn func(AlertEvent)
	ev AlertEvent
}

// AddAlert registers a rule and returns its handle. Scrape-driven
// rules (non-empty Series) evaluate after every scrape in registration
// order; event-driven rules (empty Series) evaluate only via Observe.
// Must be called from sim context before or between scrapes; safe on a
// nil DB (returns nil — every Alert method is nil-safe).
func (db *DB) AddAlert(rule AlertRule) *Alert {
	if db == nil || rule.Name == "" {
		return nil
	}
	fn := alertFnLatest
	switch rule.Fn {
	case "", "latest":
	case "avg":
		fn = alertFnAvg
	case "rate":
		fn = alertFnRate
	case "max":
		fn = alertFnMax
	case "flips":
		fn = alertFnFlips
	default:
		return nil
	}
	a := &Alert{db: db, rule: rule, fn: fn, clearAt: -1}
	ls := sortLabels(rule.Labels)
	a.rule.Labels = ls
	a.lkey = labelKey(ls)
	idLabels := append([]obs.Label{obs.L("alert", rule.Name)}, ls...)
	a.stateSeries = db.EventSeries("alert:state", 0, idLabels...)
	a.cPending = db.reg.Counter("alert_pending_total", idLabels...)
	a.cFiring = db.reg.Counter("alert_firing_total", idLabels...)
	a.cResolved = db.reg.Counter("alert_resolved_total", idLabels...)
	if rule.Series != "" {
		sl := rule.SeriesLabels
		if sl == nil {
			sl = rule.Labels
		}
		a.wkey = seriesKey(rule.Series, sortLabels(sl))
	}
	db.mu.Lock()
	db.alerts = append(db.alerts, a)
	db.mu.Unlock()
	return a
}

// breach reports whether v satisfies the rule's firing condition.
func (a *Alert) breach(v float64) bool {
	if a.rule.Below {
		return v <= a.rule.Threshold
	}
	return v >= a.rule.Threshold
}

// worse reports whether v breaches harder than the current peak.
func (a *Alert) worse(v, peak float64) bool {
	if a.rule.Below {
		return v < peak
	}
	return v > peak
}

// evalLocked computes the rule's binding value at now: the windowed
// function over every window, reduced to the value that decides the
// breach (the minimum across windows for >= rules — all windows must
// clear the threshold — and the maximum for Below rules). ok is false
// when the watched series is missing or any window lacks data.
func (a *Alert) evalLocked(now time.Duration) (float64, bool) {
	if a.s == nil {
		s := a.db.series[a.wkey]
		if s == nil {
			return 0, false
		}
		a.bindLocked(s)
	}
	if len(a.wins) == 0 {
		return a.s.latestLocked()
	}
	var out float64
	for i, w := range a.wins {
		v, ok := w.eval(now)
		if !ok {
			return 0, false
		}
		if i == 0 || (a.rule.Below && v > out) || (!a.rule.Below && v < out) {
			out = v
		}
	}
	return out, true
}

// bindLocked caches the watched series and binds one sliding window
// per rule window to it, first growing a scraped series' ring to hold
// the longest window at the scrape interval.
func (a *Alert) bindLocked(s *Series) {
	a.s = s
	if a.fn == alertFnLatest || len(a.rule.Windows) == 0 {
		return
	}
	if s.scraped {
		iv := a.db.cfg.Interval
		if need := int((slices.Max(a.rule.Windows)+iv-1)/iv) + 1; need > len(s.ring) {
			s.grow(need)
		}
	}
	for _, span := range a.rule.Windows {
		w := &window{s: s, span: span, fn: a.fn}
		w.fill()
		s.wins = append(s.wins, w)
		a.wins = append(a.wins, w)
	}
}

// stepLocked advances the state machine with one evaluation.
// Transitions are parked on the DB's pending-event buffer; the caller
// must drain it via deliverAlertEvents after unlocking.
func (a *Alert) stepLocked(now time.Duration, v float64, breach bool) {
	a.lastV, a.lastEval, a.evalOK = v, now, true
	switch {
	case breach && a.state == AlertInactive:
		a.activeAt = now
		a.evals = 1
		a.peak = v
		a.clearAt = -1
		if a.rule.For > 0 {
			a.state = AlertPending
			a.cPending.Inc()
			a.stateSeries.pushFrom(now, 1)
			a.park(AlertPending, now, v, nil)
			return
		}
		a.fireLocked(now, v)
	case breach && a.state == AlertPending:
		a.evals++
		if a.worse(v, a.peak) {
			a.peak = v
		}
		if now-a.activeAt >= a.rule.For {
			a.fireLocked(now, v)
		}
	case breach && a.state == AlertFiring:
		a.evals++
		if a.worse(v, a.peak) {
			a.peak = v
		}
		a.clearAt = -1 // a re-breach resets the keep-firing countdown
	case !breach && a.state == AlertPending:
		a.state = AlertInactive
		a.stateSeries.pushFrom(now, 0)
		a.park(AlertInactive, now, v, nil)
	case !breach && a.state == AlertFiring:
		if a.rule.KeepFiring > 0 {
			if a.clearAt < 0 {
				a.clearAt = now
			}
			if now-a.clearAt < a.rule.KeepFiring {
				return
			}
		}
		a.resolveLocked(now, v)
	}
}

func (a *Alert) fireLocked(now time.Duration, v float64) {
	a.state = AlertFiring
	a.firedAt = now
	a.clearAt = -1
	a.cFiring.Inc()
	a.stateSeries.pushFrom(now, 2)
	a.park(AlertFiring, now, v, nil)
}

func (a *Alert) resolveLocked(now time.Duration, v float64) {
	inc := AlertIncident{
		Start: a.activeAt, FiredAt: a.firedAt, End: now,
		Peak: a.peak, Evals: a.evals,
	}
	if len(a.incidents) >= alertHistoryCap {
		copy(a.incidents, a.incidents[1:])
		a.incidents = a.incidents[:len(a.incidents)-1]
		a.dropped++
	}
	a.incidents = append(a.incidents, inc)
	a.state = AlertInactive
	a.cResolved.Inc()
	a.stateSeries.pushFrom(now, 0)
	a.park(AlertInactive, now, v, &inc)
}

// park queues one transition for post-unlock delivery.
func (a *Alert) park(st AlertState, at time.Duration, v float64, inc *AlertIncident) {
	if a.rule.OnEvent == nil {
		return
	}
	a.db.pendingEv = append(a.db.pendingEv, pendingAlertEvent{
		fn: a.rule.OnEvent,
		ev: AlertEvent{Rule: a.rule.Name, Labels: a.rule.Labels, State: st, At: at, Value: v, Incident: inc},
	})
}

// deliverAlertEvents drains the parked transitions outside the DB
// lock. Callbacks may Observe other alerts (appending more events);
// the index loop picks those up, and the delivering flag keeps nested
// drains from double-firing.
func (db *DB) deliverAlertEvents() {
	if db == nil || len(db.pendingEv) == 0 || db.delivering {
		return
	}
	db.delivering = true
	for i := 0; i < len(db.pendingEv); i++ {
		pe := db.pendingEv[i]
		pe.fn(pe.ev)
	}
	db.pendingEv = db.pendingEv[:0]
	db.delivering = false
}

// evalAlertsLocked runs every scrape-driven rule once, in registration
// order. Rules with no data step with a false condition, so a vanished
// series resolves its alert rather than wedging it.
func (db *DB) evalAlertsLocked(now time.Duration) {
	for _, a := range db.alerts {
		if a.rule.Series == "" {
			continue
		}
		v, ok := a.evalLocked(now)
		if !ok {
			a.evalOK = false
			a.stepLocked(now, 0, false)
			a.evalOK = false
			continue
		}
		a.stepLocked(now, v, a.breach(v))
	}
}

// Observe feeds one event-time observation through the rule's state
// machine — the event-driven twin of the scrape evaluation, used by
// the SLO monitor so alert boundaries land exactly on task end times.
// Must be called from sim context. Safe on a nil alert.
func (a *Alert) Observe(t time.Duration, v float64) {
	if a == nil {
		return
	}
	db := a.db
	db.mu.Lock()
	if t > db.last {
		db.last = t
	}
	a.stepLocked(t, v, a.breach(v))
	db.mu.Unlock()
	db.deliverAlertEvents()
}

// Resolve force-resolves a firing alert at t (run-end flushes). A
// pending alert is cancelled. Safe on a nil alert.
func (a *Alert) Resolve(t time.Duration) {
	if a == nil {
		return
	}
	db := a.db
	db.mu.Lock()
	switch a.state {
	case AlertFiring:
		a.resolveLocked(t, a.lastV)
	case AlertPending:
		a.state = AlertInactive
		a.stateSeries.pushFrom(t, 0)
		a.park(AlertInactive, t, a.lastV, nil)
	}
	db.mu.Unlock()
	db.deliverAlertEvents()
}

// State returns the rule's current state.
func (a *Alert) State() AlertState {
	if a == nil {
		return AlertInactive
	}
	a.db.mu.RLock()
	defer a.db.mu.RUnlock()
	return a.state
}

// Incidents copies out the rule's resolved history, oldest first.
func (a *Alert) Incidents() []AlertIncident {
	if a == nil {
		return nil
	}
	a.db.mu.RLock()
	defer a.db.mu.RUnlock()
	return append([]AlertIncident(nil), a.incidents...)
}

// AlertStatus is one rule's queryable state: the /api/alerts shape.
type AlertStatus struct {
	Name      string          `json:"name"`
	Labels    []obs.Label     `json:"labels,omitempty"`
	State     string          `json:"state"`
	Since     time.Duration   `json:"since_ns,omitempty"` // pending start of the active cycle
	Value     float64         `json:"value"`
	LastEval  time.Duration   `json:"last_eval_ns"`
	Threshold float64         `json:"threshold"`
	Below     bool            `json:"below,omitempty"`
	Series    string          `json:"series,omitempty"`
	Fn        string          `json:"fn,omitempty"`
	Windows   []time.Duration `json:"windows_ns,omitempty"`
	Evals     int             `json:"evals,omitempty"` // breaching evals of the active cycle
	Peak      float64         `json:"peak,omitempty"`  // worst value of the active cycle
	Incidents []AlertIncident `json:"incidents,omitempty"`
	Dropped   int             `json:"incidents_dropped,omitempty"`
}

// AlertStatuses snapshots every registered rule in deterministic
// name-then-label order.
func (db *DB) AlertStatuses() []AlertStatus {
	if db == nil {
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]AlertStatus, 0, len(db.alerts))
	for _, a := range db.alerts {
		st := AlertStatus{
			Name: a.rule.Name, Labels: a.rule.Labels, State: a.state.String(),
			Value: a.lastV, LastEval: a.lastEval,
			Threshold: a.rule.Threshold, Below: a.rule.Below,
			Series: a.rule.Series, Fn: a.rule.Fn, Windows: a.rule.Windows,
			Incidents: append([]AlertIncident(nil), a.incidents...),
			Dropped:   a.dropped,
		}
		if a.state != AlertInactive {
			st.Since = a.activeAt
			st.Evals = a.evals
			st.Peak = a.peak
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelKey(out[i].Labels) < labelKey(out[j].Labels)
	})
	return out
}

// AlertCounts returns how many rules are currently pending and firing.
func (db *DB) AlertCounts() (pending, firing int) {
	if db == nil {
		return 0, 0
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, a := range db.alerts {
		switch a.state {
		case AlertPending:
			pending++
		case AlertFiring:
			firing++
		}
	}
	return pending, firing
}

// WriteAlertHistory renders the DB's alert state as the deterministic
// end-of-run artifact: a summary line, then one line per resolved
// incident (rule order, then chronological), then one line per rule
// still pending or firing. Every value is virtual, so the output is
// byte-identical for a given scenario at any parallelism. prefix is
// prepended to every line (the report layer passes "cell=NAME ").
func WriteAlertHistory(w io.Writer, prefix string, db *DB) error {
	bw := bufio.NewWriter(w)
	sts := db.AlertStatuses()
	incidents, pending, firing := 0, 0, 0
	for _, st := range sts {
		incidents += len(st.Incidents) + st.Dropped
		switch st.State {
		case "pending":
			pending++
		case "firing":
			firing++
		}
	}
	fmt.Fprintf(bw, "%salerts: rules=%d incidents=%d firing=%d pending=%d\n",
		prefix, len(sts), incidents, firing, pending)
	for _, st := range sts {
		id := st.Name
		if lk := labelKey(st.Labels); lk != "" {
			id += "{" + lk + "}"
		}
		if st.Dropped > 0 {
			fmt.Fprintf(bw, "%salert %s dropped=%d (history capped at %d)\n", prefix, id, st.Dropped, alertHistoryCap)
		}
		for _, inc := range st.Incidents {
			fmt.Fprintf(bw, "%salert %s state=resolved start=%s fired=%s end=%s peak=%g evals=%d\n",
				prefix, id, inc.Start, inc.FiredAt, inc.End, inc.Peak, inc.Evals)
		}
		if st.State != "inactive" {
			fmt.Fprintf(bw, "%salert %s state=%s since=%s value=%g evals=%d\n",
				prefix, id, st.State, st.Since, st.Value, st.Evals)
		}
	}
	return bw.Flush()
}

// pushFrom appends a sample from engine code that already holds the DB
// lock (Series.Append would deadlock). Safe on a nil series.
func (s *Series) pushFrom(t time.Duration, v float64) {
	if s == nil {
		return
	}
	s.push(t, v)
	if t > s.db.last {
		s.db.last = t
	}
}

// Rescans over the samples with T >= cutoff: the ad-hoc query path
// (DB's query methods) and the reference the alert engine's sliding windows
// (window.go) are checked against. Callers hold the DB lock.

func (s *Series) latestLocked() (float64, bool) {
	if s.n == 0 {
		return 0, false
	}
	return s.at(s.n - 1).V, true
}

// avgLocked is the window's exact sum, rounded once, over its count.
func (s *Series) avgLocked(cutoff time.Duration) (float64, bool) {
	lo := s.searchLocked(cutoff)
	if lo >= s.n {
		return 0, false
	}
	var sum exactSum
	for i := lo; i < s.n; i++ {
		sum.add(s.at(i).V, 1)
	}
	return sum.float() / float64(s.n-lo), true
}

func (s *Series) rateLocked(cutoff time.Duration) (float64, bool) {
	lo := s.searchLocked(cutoff)
	if s.n-lo < 2 {
		return 0, false
	}
	return rateOf(s.at(lo), s.at(s.n-1))
}

// rateOf is the per-second increase from first to last; ok is false
// unless time advanced between them.
func rateOf(first, last Sample) (float64, bool) {
	dt := (last.T - first.T).Seconds()
	if dt <= 0 {
		return 0, false
	}
	return (last.V - first.V) / dt, true
}

func (s *Series) maxLocked(cutoff time.Duration) (float64, bool) {
	lo := s.searchLocked(cutoff)
	if lo >= s.n {
		return 0, false
	}
	max := s.at(lo).V
	for i := lo + 1; i < s.n; i++ {
		if x := s.at(i).V; x > max {
			max = x
		}
	}
	return max, true
}

// flipsLocked counts direction changes of the sample sequence inside
// the window (zero deltas don't reset the direction) — the oscillation
// measure behind scale-flap detection.
func (s *Series) flipsLocked(cutoff time.Duration) (float64, bool) {
	lo := s.searchLocked(cutoff)
	if s.n-lo < 2 {
		return 0, false
	}
	flips, dir := 0, 0
	for i := lo + 1; i < s.n; i++ {
		d := s.at(i).V - s.at(i-1).V
		switch {
		case d > 0:
			if dir < 0 {
				flips++
			}
			dir = 1
		case d < 0:
			if dir > 0 {
				flips++
			}
			dir = -1
		}
	}
	return float64(flips), true
}
