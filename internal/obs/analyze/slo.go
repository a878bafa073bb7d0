package analyze

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// Rule is one latency objective: at least Target fraction of an app's
// tasks inside any sliding Window must complete successfully within
// Latency (all on the virtual clock).
type Rule struct {
	App     string
	Latency time.Duration
	Target  float64       // e.g. 0.95
	Window  time.Duration // sliding window; DefaultSLOWindow if zero
}

// DefaultSLOWindow is the sliding window used when a rule omits one.
const DefaultSLOWindow = 60 * time.Second

// ParseSLOSpec parses a comma-separated list of rules, each
// "<app>:<latency>:<target>[:<window>]", e.g.
// "llama-complete:12s:0.9,llama-load:30s:0.99:120s".
func ParseSLOSpec(spec string) ([]Rule, error) {
	var rules []Rule
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fmt.Errorf("slo: %q: want app:latency:target[:window]", part)
		}
		r := Rule{App: fields[0], Window: DefaultSLOWindow}
		if r.App == "" {
			return nil, fmt.Errorf("slo: %q: empty app", part)
		}
		if seen[r.App] {
			return nil, fmt.Errorf("slo: duplicate rule for app %q", r.App)
		}
		seen[r.App] = true
		var err error
		if r.Latency, err = time.ParseDuration(fields[1]); err != nil || r.Latency <= 0 {
			return nil, fmt.Errorf("slo: %q: bad latency %q", part, fields[1])
		}
		// Negated so NaN fails too.
		if r.Target, err = strconv.ParseFloat(fields[2], 64); err != nil || !(r.Target > 0 && r.Target < 1) {
			return nil, fmt.Errorf("slo: %q: target must be in (0,1)", part)
		}
		if len(fields) == 4 {
			if r.Window, err = time.ParseDuration(fields[3]); err != nil || r.Window <= 0 {
				return nil, fmt.Errorf("slo: %q: bad window %q", part, fields[3])
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("slo: empty spec")
	}
	return rules, nil
}

// sloEvent is one terminal task outcome inside the sliding window.
type sloEvent struct {
	at  time.Duration
	bad bool
}

// sloBurnCap is the ring size of each app's shared "slo:burn" series:
// room for the densest window a scenario's alert rules query.
const sloBurnCap = 1 << 16

// appState tracks one rule's sliding window (an exact list of the
// outcomes inside it) and its alert (a tsdb engine rule).
type appState struct {
	rule   Rule
	events []sloEvent
	head   int // index of the oldest live event
	bad    int

	burnSeries *tsdb.Series // burn rate after each event; nil without a shared db
	alert      *tsdb.Alert  // the engine-backed "slo-burn" rule
}

// Monitor evaluates SLO burn rates live over the span stream. It is
// read-only with respect to the simulation: it never schedules events
// and does not steer the repartitioning controller. Alert windows are
// recorded retroactively (AddSpan at clear time) so the monitor never
// leaves spans open; burn events and alert counts flow through the
// collector's metrics registry.
type Monitor struct {
	c     *obs.Collector
	clk   obs.Clock
	apps  map[string]*appState
	order []string
}

// NewMonitor attaches a monitor for the given rules to the collector's
// span stream. Each rule's alert is an event-driven tsdb engine rule
// fed the burn rate after every task outcome. With a shared db the
// rules register there — their pending/firing state, alert:state
// series, incident history and alert_* counters become queryable live —
// and each app gets an "slo:burn" event series, the control input for
// autoscalers and the HTTP plane. A nil db puts the rules on a private
// store with its own registry, so no alert_* family reaches the
// collector's metrics. A nil collector yields a nil (no-op) monitor.
func NewMonitor(c *obs.Collector, clk obs.Clock, rules []Rule, db *tsdb.DB) *Monitor {
	if c == nil || len(rules) == 0 {
		return nil
	}
	alerts := db
	if alerts == nil {
		alerts = tsdb.New(obs.NewRegistry(), clk, tsdb.Config{})
	}
	m := &Monitor{c: c, clk: clk, apps: make(map[string]*appState)}
	for _, r := range rules {
		if r.Window <= 0 {
			r.Window = DefaultSLOWindow
		}
		app := r.App
		st := &appState{rule: r, burnSeries: db.EventSeries("slo:burn", sloBurnCap, obs.L("app", app))}
		// No Series and no For: fire on the first burn >= 1, resolve on
		// the first burn < 1. OnEvent counts slo_alerts_total on firing
		// and records the retroactive slo/burn span on resolution.
		st.alert = alerts.AddAlert(tsdb.AlertRule{
			Name:      "slo-burn",
			Labels:    []obs.Label{obs.L("app", app)},
			Threshold: 1,
			OnEvent: func(ev tsdb.AlertEvent) {
				switch {
				case ev.State == tsdb.AlertFiring:
					m.c.Metrics().Counter("slo_alerts_total", obs.L("app", app)).Inc()
				case ev.Incident != nil:
					m.c.AddSpan("slo", "burn", "slo:"+app, 0, ev.Incident.Start, ev.Incident.End,
						obs.String("app", app),
						obs.Float("peak_burn", ev.Incident.Peak),
						obs.Int("events", ev.Incident.Evals),
					)
				}
			},
		})
		m.apps[app] = st
		m.order = append(m.order, app)
	}
	c.OnSpanEnd(m.onSpan)
	return m
}

// record adds one terminal outcome at its event time, evicts anything
// that fell out of the sliding window, and returns the burn rate: the
// fraction of the error budget (1-target) the window's bad fraction
// consumes. burn >= 1 means the objective is being violated.
func (st *appState) record(at time.Duration, bad bool) float64 {
	st.events = append(st.events, sloEvent{at: at, bad: bad})
	if bad {
		st.bad++
	}
	// The event just appended is inside its own window, so the window
	// never empties.
	cutoff := at - st.rule.Window
	for st.events[st.head].at < cutoff {
		if st.events[st.head].bad {
			st.bad--
		}
		st.head++
	}
	// Reclaim the consumed prefix once it outgrows the live part, so
	// memory follows the window, not the run; each copy moves fewer
	// events than were consumed since the last, keeping O(1) amortised.
	if st.head > len(st.events)/2 {
		st.events = st.events[:copy(st.events, st.events[st.head:])]
		st.head = 0
	}
	badFrac := float64(st.bad) / float64(len(st.events)-st.head)
	return badFrac / (1 - st.rule.Target)
}

func (m *Monitor) onSpan(s obs.Span) {
	if s.Cat != "dfk" || s.Name != "task" {
		return
	}
	st, ok := m.apps[s.Attr("app")]
	if !ok {
		return
	}
	// Shed tasks are admission-control availability loss, counted in
	// faas_tasks_shed_total; they are not latency-SLO events. Folding
	// them into the burn signal would make shedding self-sustaining:
	// sheds raise burn, burn sustains shedding.
	if s.Attr("status") == "shed" {
		return
	}
	good := s.Attr("status") == "done" && s.Duration() <= st.rule.Latency
	verdict := "good"
	if !good {
		verdict = "bad"
	}
	m.c.Metrics().Counter("slo_events_total", obs.L("app", st.rule.App), obs.L("verdict", verdict)).Inc()
	burn := st.record(s.End, !good)
	st.burnSeries.Append(s.End, burn)
	st.alert.Observe(s.End, burn)
}

// Close flushes alert windows still burning at run end, clamped to the
// current virtual time. Safe on a nil monitor.
func (m *Monitor) Close() {
	if m == nil {
		return
	}
	now := m.clk.Now()
	for _, app := range m.order {
		m.apps[app].alert.Resolve(now)
	}
}

// WriteAlerts renders every recorded SLO alert window as one text line
// per alert, in collector order then emission order — the
// deterministic "alert stream" artifact.
func WriteAlerts(w io.Writer, collectors ...*obs.Collector) error {
	bw := bufio.NewWriter(w)
	for _, c := range collectors {
		if c == nil {
			continue
		}
		scope := c.Scope()
		c.EachSpan(func(s *obs.Span) {
			if s.Cat != "slo" || s.Name != "burn" {
				return
			}
			// Piecewise writes, not Fprintf: fmt's printer pool makes the
			// allocation count vary from run to run under -race.
			for _, part := range [...]string{
				scope, " app=", s.Attr("app"), " start=", s.Start.String(), " end=", s.End.String(),
				" peak_burn=", s.Attr("peak_burn"), " events=", s.Attr("events"), "\n",
			} {
				bw.WriteString(part)
			}
		})
	}
	return bw.Flush()
}
