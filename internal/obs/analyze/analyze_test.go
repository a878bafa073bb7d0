package analyze

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"math/bits"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// tickClock is a settable obs.Clock for building synthetic collectors.
type tickClock struct{ now time.Duration }

func (c *tickClock) Now() time.Duration { return c.now }

const ms = time.Millisecond

// addTask records a synthetic dfk task span with the attrs Analyze
// keys on and returns its ID for parenting child spans.
func addTask(c *obs.Collector, id int, app, executor, status string, start, end time.Duration) obs.SpanID {
	return c.AddSpan("dfk", "task", "task", 0, start, end,
		obs.Int("task", id),
		obs.String("app", app),
		obs.String("executor", executor),
		obs.String("status", status),
	)
}

func taskByID(t *testing.T, rep *Report, id int) *TaskAttribution {
	t.Helper()
	for i := range rep.Tasks {
		if rep.Tasks[i].Task == id {
			return &rep.Tasks[i]
		}
	}
	t.Fatalf("task %d not in report", id)
	return nil
}

// checkSum asserts the exact-sum invariant for every task.
func checkSum(t *testing.T, rep *Report) {
	t.Helper()
	for i := range rep.Tasks {
		ta := &rep.Tasks[i]
		if got, want := ta.Phases.Total(), ta.Duration(); got != want {
			t.Errorf("task %d: phases sum %v != duration %v", ta.Task, got, want)
		}
	}
}

// TestAttributionFullPipeline exercises one task with every evidence
// kind: queue wait overlapping worker init, a run span enclosing a
// weight transfer, a plain transfer, and a kernel with dispatch delay.
func TestAttributionFullPipeline(t *testing.T) {
	clk := &tickClock{}
	c := obs.New(clk)
	c.SetScope("unit")

	// Worker init window [0, 40ms) on worker w0.
	c.AddSpan("htex", "init", "w0", 0, 0, 40*ms)

	task := addTask(c, 7, "llama", "htex-gpu", "done", 10*ms, 200*ms)
	// Queue [10, 60): the slice up to 40ms overlaps w0's init window.
	q := c.AddSpan("htex", "queue", "task", task, 10*ms, 60*ms, obs.String("worker", "w0"))
	_ = q
	// Run [60, 200) on w0.
	run := c.AddSpan("htex", "run", "w0", task, 60*ms, 200*ms,
		obs.Int("task", 7), obs.String("app", "llama"), obs.Int("gpu_pct", 40))
	// Lazy context init [60, 70).
	c.AddSpan("htex", "ctxinit", "w0", run, 60*ms, 70*ms)
	// Weight transfer [70, 100).
	c.AddSpan("simgpu", "xfer", "ctx", run, 70*ms, 100*ms, obs.String("tag", "weights"))
	// Plain transfer [100, 110).
	c.AddSpan("simgpu", "xfer", "ctx", run, 100*ms, 110*ms)
	// Kernel executed [140, 190) after 30ms of dispatch delay.
	c.AddSpan("simgpu", "decode", "ctx", run, 140*ms, 190*ms, obs.Dur("queue_ns", 30*ms))

	rep := Analyze(c)
	checkSum(t, rep)
	ta := taskByID(t, rep, 7)

	want := map[Phase]time.Duration{
		PhaseQueue:       20 * ms, // [40,60): queue not covered by init
		PhaseColdStart:   40 * ms, // [10,40) queue∩init + [60,70) ctxinit
		PhaseWeightLoad:  30 * ms, // [70,100)
		PhasePCIe:        10 * ms, // [100,110)
		PhaseHost:        40 * ms, // [110,140) gap + [190,200) tail of run
		PhaseKernelQueue: 30 * ms, // [110,140)... wait, overlaps host
		PhaseCompute:     50 * ms, // [140,190)
	}
	// Kernel queue [110,140) outranks the run span, so host is only
	// the trailing [190,200).
	want[PhaseHost] = 10 * ms
	for p, w := range want {
		if ta.Phases[p] != w {
			t.Errorf("phase %s = %v, want %v", p, ta.Phases[p], w)
		}
	}
	if ta.Phases[PhaseOther] != 0 || ta.Phases[PhaseSubmit] != 0 || ta.Phases[PhaseRetryBackoff] != 0 {
		t.Errorf("unexpected residual phases: submit=%v retry=%v other=%v",
			ta.Phases[PhaseSubmit], ta.Phases[PhaseRetryBackoff], ta.Phases[PhaseOther])
	}
	if ta.GPUPct != "40" {
		t.Errorf("GPUPct = %q, want 40", ta.GPUPct)
	}

	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(rep.Groups))
	}
	g := rep.Groups[0]
	if g.Scope != "unit" || g.App != "llama" || g.Tasks != 1 || g.MeanNS != int64(190*ms) {
		t.Errorf("group = %+v", g)
	}
}

// TestAttributionGapClasses checks positional classification of
// uncovered time: leading gap -> submit, interior gap -> retry_backoff,
// trailing gap -> other, and no evidence at all -> submit.
func TestAttributionGapClasses(t *testing.T) {
	clk := &tickClock{}
	c := obs.New(clk)

	task := addTask(c, 1, "a", "x", "done", 0, 100*ms)
	// Evidence only in the middle: runs [20,40) and [60,80).
	c.AddSpan("htex", "run", "w", task, 20*ms, 40*ms)
	c.AddSpan("htex", "run", "w", task, 60*ms, 80*ms)

	bare := addTask(c, 2, "a", "x", "done", 0, 50*ms)
	_ = bare

	rep := Analyze(c)
	checkSum(t, rep)

	ta := taskByID(t, rep, 1)
	if ta.Phases[PhaseSubmit] != 20*ms {
		t.Errorf("leading gap: submit = %v, want 20ms", ta.Phases[PhaseSubmit])
	}
	if ta.Phases[PhaseRetryBackoff] != 20*ms {
		t.Errorf("interior gap: retry_backoff = %v, want 20ms", ta.Phases[PhaseRetryBackoff])
	}
	if ta.Phases[PhaseOther] != 20*ms {
		t.Errorf("trailing gap: other = %v, want 20ms", ta.Phases[PhaseOther])
	}
	if ta.Phases[PhaseHost] != 40*ms {
		t.Errorf("host = %v, want 40ms", ta.Phases[PhaseHost])
	}

	tb := taskByID(t, rep, 2)
	if tb.Phases[PhaseSubmit] != 50*ms {
		t.Errorf("no evidence: submit = %v, want full 50ms", tb.Phases[PhaseSubmit])
	}
}

// TestAttributionBlockedQueue checks critical-path reattribution of
// queue time: waiting for a busy worker is decomposed along the
// blocking run's phases, while wait with no blocker stays queue.
func TestAttributionBlockedQueue(t *testing.T) {
	clk := &tickClock{}
	c := obs.New(clk)

	// Blocker: another task's run on w0 over [0, 60ms), split into
	// 20ms kernel-queue, 30ms compute, 10ms host remainder.
	blocker := addTask(c, 1, "a", "ex", "done", 0, 60*ms)
	brun := c.AddSpan("htex", "run", "w0", blocker, 0, 60*ms)
	c.AddSpan("simgpu", "k", "ctx", brun, 20*ms, 50*ms, obs.Dur("queue_ns", 20*ms))

	// Waiter: queued [0, 80ms) for w0, runs [80, 100ms).
	waiter := addTask(c, 2, "a", "ex", "done", 0, 100*ms)
	c.AddSpan("htex", "queue", "task", waiter, 0, 80*ms, obs.String("worker", "w0"))
	c.AddSpan("htex", "run", "w0", waiter, 80*ms, 100*ms)

	rep := Analyze(c)
	checkSum(t, rep)
	ta := taskByID(t, rep, 2)
	want := map[Phase]time.Duration{
		PhaseKernelQueue: 20 * ms, // blocker's dispatch delay [0,20)
		PhaseCompute:     30 * ms, // blocker's kernel [20,50)
		PhaseQueue:       20 * ms, // [60,80): worker free of runs
		PhaseHost:        30 * ms, // blocker's remainder [50,60) + own run
	}
	for p, w := range want {
		if ta.Phases[p] != w {
			t.Errorf("phase %s = %v, want %v", p, ta.Phases[p], w)
		}
	}
	// The blocker's own attribution is untouched by the waiter.
	tb := taskByID(t, rep, 1)
	if tb.Phases[PhaseCompute] != 30*ms || tb.Phases[PhaseKernelQueue] != 20*ms || tb.Phases[PhaseHost] != 10*ms {
		t.Errorf("blocker phases = %+v", tb.Phases)
	}
}

// TestAttributionRestartWindow checks that an executor restart window
// claims otherwise-uncovered queue-adjacent time, but only for tasks on
// that executor, and never outranks real evidence.
func TestAttributionRestartWindow(t *testing.T) {
	clk := &tickClock{}
	c := obs.New(clk)

	// Restart window [20, 60) on executor ex1.
	c.AddSpan("htex", "restart", "ex1", 0, 20*ms, 60*ms, obs.String("executor", "ex1"))

	t1 := addTask(c, 1, "a", "ex1", "done", 0, 100*ms)
	c.AddSpan("htex", "run", "w", t1, 60*ms, 100*ms)

	t2 := addTask(c, 2, "a", "ex2", "done", 0, 100*ms)
	c.AddSpan("htex", "run", "w", t2, 60*ms, 100*ms)

	// Task fully covered by a queue span: restart must not outrank it.
	t3 := addTask(c, 3, "a", "ex1", "done", 0, 100*ms)
	c.AddSpan("htex", "queue", "task", t3, 0, 100*ms)

	rep := Analyze(c)
	checkSum(t, rep)

	if ta := taskByID(t, rep, 1); ta.Phases[PhaseRestartStall] != 40*ms {
		t.Errorf("same executor: restart_stall = %v, want 40ms", ta.Phases[PhaseRestartStall])
	}
	if ta := taskByID(t, rep, 2); ta.Phases[PhaseRestartStall] != 0 {
		t.Errorf("other executor: restart_stall = %v, want 0", ta.Phases[PhaseRestartStall])
	}
	if ta := taskByID(t, rep, 3); ta.Phases[PhaseQueue] != 100*ms || ta.Phases[PhaseRestartStall] != 0 {
		t.Errorf("queue outranks restart: queue=%v restart=%v", ta.Phases[PhaseQueue], ta.Phases[PhaseRestartStall])
	}
}

// TestBreakdownJSONRoundTrip locks the canonical phase-object encoding
// and rejects unknown phase names on the way back in.
func TestBreakdownJSONRoundTrip(t *testing.T) {
	clk := &tickClock{}
	c := obs.New(clk)
	c.SetScope("rt")
	task := addTask(c, 1, "a", "x", "done", 0, 10*ms)
	c.AddSpan("htex", "run", "w", task, 0, 10*ms)
	rep := Analyze(c)

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"host": 10000000`) {
		t.Fatalf("missing host entry in %s", buf.String())
	}
	back, err := ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tasks) != 1 || back.Tasks[0].Phases != rep.Tasks[0].Phases {
		t.Fatalf("round trip mismatch: %+v vs %+v", back.Tasks, rep.Tasks)
	}

	var b Breakdown
	if err := b.UnmarshalJSON([]byte(`{"no_such_phase":1}`)); err == nil {
		t.Fatal("unknown phase accepted")
	}
}

// TestWriteFolded locks the folded-stack line format and ordering.
func TestWriteFolded(t *testing.T) {
	clk := &tickClock{}
	c := obs.New(clk)
	c.SetScope("s")
	task := addTask(c, 1, "app", "ex", "done", 0, 30*ms)
	run := c.AddSpan("htex", "run", "w", task, 10*ms, 30*ms, obs.Int("gpu_pct", 25))
	c.AddSpan("simgpu", "k", "ctx", run, 10*ms, 30*ms)
	rep := Analyze(c)

	var buf bytes.Buffer
	if err := WriteFolded(&buf, rep); err != nil {
		t.Fatal(err)
	}
	want := "s;ex;app@25;compute 20000000\ns;ex;app@25;submit 10000000\n"
	if buf.String() != want {
		t.Fatalf("folded:\n%q\nwant:\n%q", buf.String(), want)
	}
}

// goodSLOSpec and badSLOSpecs are ParseSLOSpec's accept and reject
// cases, shared by the unit test and the fuzz seed corpus.
const goodSLOSpec = "llama:12s:0.9,load:30s:0.99:120s"

var badSLOSpecs = []string{
	"", "x", "a:12s", "a:nope:0.9", "a:12s:1.5", "a:12s:0",
	"a:12s:0.9,a:5s:0.5", ":12s:0.9", "a:12s:0.9:zz", "a:12s:nan", "a:12s:0.9x",
}

func TestParseSLOSpec(t *testing.T) {
	rules, err := ParseSLOSpec(goodSLOSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(rules))
	}
	if rules[0].App != "llama" || rules[0].Latency != 12*time.Second ||
		rules[0].Target != 0.9 || rules[0].Window != DefaultSLOWindow {
		t.Errorf("rule 0 = %+v", rules[0])
	}
	if rules[1].Window != 120*time.Second {
		t.Errorf("rule 1 window = %v", rules[1].Window)
	}
	for _, bad := range badSLOSpecs {
		if _, err := ParseSLOSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// FuzzParseSLOSpec checks that every spec ParseSLOSpec accepts yields
// rules a monitor can evaluate: at least one, unique non-empty apps, a
// positive latency and window, and a target strictly inside (0,1).
func FuzzParseSLOSpec(f *testing.F) {
	f.Add(goodSLOSpec)
	for _, bad := range badSLOSpecs {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseSLOSpec(spec)
		if err != nil {
			return
		}
		if len(rules) == 0 {
			t.Fatalf("%q: accepted with no rules", spec)
		}
		seen := make(map[string]bool)
		for _, r := range rules {
			if r.App == "" || seen[r.App] {
				t.Fatalf("%q: empty or duplicate app %q", spec, r.App)
			}
			seen[r.App] = true
			if r.Latency <= 0 || r.Window <= 0 {
				t.Fatalf("%q: rule %+v: non-positive latency or window", spec, r)
			}
			if !(r.Target > 0 && r.Target < 1) {
				t.Fatalf("%q: rule %+v: target outside (0,1)", spec, r)
			}
		}
	})
}

// TestMonitorAlertLifecycle drives task spans through a monitor and
// checks the alert window, counters, and the rendered alert stream.
func TestMonitorAlertLifecycle(t *testing.T) {
	clk := &tickClock{}
	c := obs.New(clk)
	c.SetScope("mon")
	rules := []Rule{{App: "a", Latency: 10 * ms, Target: 0.5, Window: time.Second}}
	m := NewMonitor(c, clk, rules, nil)
	if m == nil {
		t.Fatal("nil monitor")
	}

	end := func(at time.Duration, dur time.Duration, status string) {
		clk.now = at
		addTask(c, int(at/ms), "a", "ex", status, at-dur, at)
	}
	end(100*ms, 5*ms, "done")  // good: burn 0
	end(200*ms, 50*ms, "done") // slow -> bad: (1/2)/0.5 = 1 -> alert
	end(300*ms, 60*ms, "failed")
	end(400*ms, 5*ms, "done") // 2/4 -> burn 1, still burning
	end(500*ms, 5*ms, "done") // 2/5 -> burn 0.8 < 1 -> clears

	// An app without a rule is ignored.
	clk.now = 700 * ms
	addTask(c, 99, "other", "ex", "failed", 600*ms, 700*ms)

	m.Close()
	if got := c.Metrics().Counter("slo_alerts_total", obs.L("app", "a")).Value(); got != 1 {
		t.Errorf("slo_alerts_total = %v, want 1", got)
	}
	if got := c.Metrics().Counter("slo_events_total", obs.L("app", "a"), obs.L("verdict", "bad")).Value(); got != 2 {
		t.Errorf("bad events = %v, want 2", got)
	}

	var alerts []obs.Span
	for _, s := range c.Spans() {
		if s.Cat == "slo" && s.Name == "burn" {
			alerts = append(alerts, s)
		}
	}
	if len(alerts) != 1 {
		t.Fatalf("alert spans = %d, want 1", len(alerts))
	}
	a := alerts[0]
	if a.Start != 200*ms || a.End != 500*ms || a.Attr("app") != "a" {
		t.Errorf("alert = [%v,%v] app=%q", a.Start, a.End, a.Attr("app"))
	}
	if leaked := c.CheckClosed(); len(leaked) != 0 {
		t.Errorf("monitor leaked open spans: %v", leaked)
	}

	var buf bytes.Buffer
	if err := WriteAlerts(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "mon app=a start=200ms end=500ms") {
		t.Errorf("alert stream: %q", buf.String())
	}
}

// TestMonitorCloseFlushesActiveAlert checks a still-burning alert is
// clamped to the clock at Close.
func TestMonitorCloseFlushesActiveAlert(t *testing.T) {
	clk := &tickClock{}
	c := obs.New(clk)
	m := NewMonitor(c, clk, []Rule{{App: "a", Latency: ms, Target: 0.5}}, nil)
	clk.now = 50 * ms
	addTask(c, 1, "a", "ex", "failed", 0, 50*ms)
	clk.now = 80 * ms
	m.Close()
	var got *obs.Span
	for _, s := range c.Spans() {
		if s.Cat == "slo" {
			s := s
			got = &s
		}
	}
	if got == nil || got.Start != 50*ms || got.End != 80*ms {
		t.Fatalf("flushed alert = %+v", got)
	}
}

func TestNewMonitorNil(t *testing.T) {
	if NewMonitor(nil, &tickClock{}, []Rule{{App: "a"}}, nil) != nil {
		t.Error("nil collector should yield nil monitor")
	}
	var m *Monitor
	m.Close() // must not panic
}

// TestDiff locks the dominant-phase computation and JSON shape.
func TestDiff(t *testing.T) {
	mk := func(compute, kq time.Duration) *Report {
		r := &Report{}
		var b Breakdown
		b[PhaseCompute] = compute
		b[PhaseKernelQueue] = kq
		r.Tasks = append(r.Tasks, TaskAttribution{
			Task: 1, App: "a", StartNS: 0, EndNS: int64(compute + kq), Phases: b,
		})
		return r
	}
	a := mk(100*ms, 300*ms)
	b := mk(110*ms, 20*ms)
	d := Diff(a, b, "A", "B")
	if d.Dominant != "kernel_queue" {
		t.Errorf("dominant = %q, want kernel_queue", d.Dominant)
	}
	if d.DeltaNS != int64(130*ms-400*ms) {
		t.Errorf("delta = %d", d.DeltaNS)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dominant": "kernel_queue"`) {
		t.Errorf("json: %s", buf.String())
	}
	buf.Reset()
	if err := d.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<- dominant") {
		t.Errorf("text: %s", buf.String())
	}
}

// TestDiffEmpty: diffing empty reports must not divide by zero.
func TestDiffEmpty(t *testing.T) {
	d := Diff(&Report{}, &Report{}, "A", "B")
	if d.TasksA != 0 || d.TasksB != 0 || d.DeltaNS != 0 {
		t.Errorf("empty diff = %+v", d)
	}
}

func TestPhaseByName(t *testing.T) {
	for p := Phase(0); p < NumPhases; p++ {
		got, ok := PhaseByName(p.String())
		if !ok || got != p {
			t.Errorf("PhaseByName(%q) = %v, %v", p.String(), got, ok)
		}
	}
	if _, ok := PhaseByName("nope"); ok {
		t.Error("unknown name resolved")
	}
	if Phase(-1).String() != "invalid" || NumPhases.String() != "invalid" {
		t.Error("out-of-range String")
	}
}

// ownPrios lists every interval priority constant with the one phase
// it names; run marks the run evidence that blockedPrio reattributes
// onto a waiting task's queue time.
var ownPrios = []struct {
	name  string
	prio  int
	phase Phase
	run   bool
}{
	{"prioRestart", prioRestart, PhaseRestartStall, false},
	{"prioQueue", prioQueue, PhaseQueue, false},
	{"prioInitWait", prioInitWait, PhaseColdStart, false},
	{"prioRun", prioRun, PhaseHost, true},
	{"prioCtxInit", prioCtxInit, PhaseColdStart, true},
	{"prioPCIe", prioPCIe, PhasePCIe, true},
	{"prioWeights", prioWeights, PhaseWeightLoad, true},
	{"prioKernQueue", prioKernQueue, PhaseKernelQueue, true},
	{"prioCompute", prioCompute, PhaseCompute, true},
}

type prioPhase struct {
	prio  int
	phase Phase
}

// evidencePrios returns every priority attribution emits, own and
// blocked, with its phase, sorted by priority. It reports any value
// two priorities share (so none can name two phases, and no blocked
// priority can collide with an own-evidence one) and any value outside
// the sweep's mask.
func evidencePrios(t testing.TB) []prioPhase {
	t.Helper()
	named := make(map[int]Phase)
	add := func(what string, prio int, phase Phase) {
		if ph, dup := named[prio]; dup {
			t.Errorf("%s = %d collides with a priority naming %s", what, prio, ph)
		}
		if prio < 0 || prio >= maxPrio {
			t.Errorf("%s = %d is outside [0, %d)", what, prio, maxPrio)
		}
		named[prio] = phase
	}
	for _, o := range ownPrios {
		add(o.name, o.prio, o.phase)
	}
	for _, o := range ownPrios {
		if o.run {
			add("blockedPrio("+o.name+")", blockedPrio(o.prio), o.phase)
		}
	}
	out := make([]prioPhase, 0, len(named))
	for p, ph := range named {
		out = append(out, prioPhase{p, ph})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].prio < out[j].prio })
	return out
}

// addEveryDeviceKind records a 90ms run on w0 at `at` with every kind
// of device evidence: context init, weight and plain transfers, and a
// kernel with dispatch delay.
func addEveryDeviceKind(c *obs.Collector, task obs.SpanID, at time.Duration) {
	run := c.AddSpan("htex", "run", "w0", task, at, at+90*ms)
	c.AddSpan("htex", "ctxinit", "w0", run, at, at+10*ms)
	c.AddSpan("simgpu", "xfer", "ctx", run, at+10*ms, at+20*ms, obs.String("tag", "weights"))
	c.AddSpan("simgpu", "xfer", "ctx", run, at+20*ms, at+30*ms)
	c.AddSpan("simgpu", "decode", "ctx", run, at+40*ms, at+80*ms, obs.Dur("queue_ns", 10*ms))
}

// TestPrioNamesOnePhase pins the invariant the sweep relies on: every
// priority attribution emits names exactly one phase, so which of
// several equal-priority intervals covers a segment never matters and
// attribution cannot depend on interval order.
func TestPrioNamesOnePhase(t *testing.T) {
	// Every prio* constant in the source must be listed in ownPrios, so
	// a new priority cannot bypass this check.
	f, err := parser.ParseFile(token.NewFileSet(), "analyze.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	for _, o := range ownPrios {
		listed[o.name] = true
	}
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			for _, spec := range gd.Specs {
				for _, n := range spec.(*ast.ValueSpec).Names {
					if strings.HasPrefix(n.Name, "prio") && !listed[n.Name] {
						t.Errorf("priority constant %s is missing from ownPrios", n.Name)
					}
				}
			}
		}
	}
	want := make(map[int]Phase)
	for _, pp := range evidencePrios(t) {
		want[pp.prio] = pp.phase
	}

	// A waiter queued behind a blocker's run, inside a restart window
	// and a worker init window, carries every priority there is; each
	// interval attribution builds must match the table.
	c := obs.New(&tickClock{})
	c.AddSpan("htex", "restart", "ex", 0, 0, 5*ms, obs.String("executor", "ex"))
	c.AddSpan("htex", "init", "w0", 0, 0, 10*ms)
	blocker := addTask(c, 1, "a", "ex", "done", 0, 100*ms)
	addEveryDeviceKind(c, blocker, 10*ms)
	waiter := addTask(c, 2, "a", "ex", "done", 0, 200*ms)
	c.AddSpan("htex", "queue", "task", waiter, 0, 100*ms, obs.String("worker", "w0"))
	addEveryDeviceKind(c, waiter, 100*ms)

	a := newAnalyzer()
	spans := c.Spans()
	var tasks []*obs.Span
	for i := range spans {
		if a.addEvidence(&spans[i]) {
			tasks = append(tasks, &spans[i])
		}
	}
	seen := make(map[int]bool)
	for _, task := range tasks {
		a.attributeTask(task)
		for _, iv := range a.ivs {
			switch ph, ok := want[iv.prio]; {
			case !ok:
				t.Errorf("interval priority %d (%s) is in no band", iv.prio, iv.phase)
			case ph != iv.phase:
				t.Errorf("interval priority %d carries %s; the table says %s", iv.prio, iv.phase, ph)
			}
			seen[iv.prio] = true
		}
	}
	for p, ph := range want {
		if !seen[p] {
			t.Errorf("priority %d (%s) never emitted: the scenario no longer covers it", p, ph)
		}
	}
}

// decomposeRef is the original quadratic scan, kept as the oracle for
// sweep.decompose: every elementary segment between interval
// boundaries rescans every clipped interval for its highest-priority
// cover, the first of equal priorities winning.
func decomposeRef(start, end time.Duration, ivs []interval) Breakdown {
	var b Breakdown
	if end <= start {
		return b
	}
	var clipped []interval
	covLo, covHi := end, start
	for _, iv := range ivs {
		iv.start, iv.end = maxDur(iv.start, start), minDur(iv.end, end)
		if iv.end <= iv.start {
			continue
		}
		covLo, covHi = minDur(covLo, iv.start), maxDur(covHi, iv.end)
		clipped = append(clipped, iv)
	}
	if len(clipped) == 0 {
		b[PhaseSubmit] = end - start
		return b
	}
	bounds := []time.Duration{start, end}
	for _, iv := range clipped {
		bounds = append(bounds, iv.start, iv.end)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	uniq := bounds[:1]
	for _, t := range bounds[1:] {
		if t != uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	for i := 0; i+1 < len(uniq); i++ {
		a, z := uniq[i], uniq[i+1]
		best := -1
		var ph Phase
		for _, iv := range clipped {
			if iv.start <= a && a < iv.end && iv.prio > best {
				best, ph = iv.prio, iv.phase
			}
		}
		if best < 0 {
			switch {
			case z <= covLo:
				ph = PhaseSubmit
			case a >= covHi:
				ph = PhaseOther
			default:
				ph = PhaseRetryBackoff
			}
		}
		b[ph] += z - a
	}
	return b
}

func shuffle[T any](rnd *rand.Rand, arr []T) {
	if len(arr) < 2 {
		return
	}
	rnd.Shuffle(len(arr), func(i, j int) {
		arr[i], arr[j] = arr[j], arr[i]
	})
}

// randomEvidence draws a task window and an interval set on a coarse
// millisecond grid, so zero-length and reversed intervals, intervals
// outside the window, and touching or shared edges are all common.
// Priorities and phases come from the table attribution emits.
func randomEvidence(rnd *rand.Rand, prios []prioPhase) (start, end time.Duration, ivs []interval) {
	grid := func(n int) time.Duration { return time.Duration(rnd.IntN(n)) * ms }
	start = grid(24)
	end = start + grid(16)
	for range rnd.IntN(24) {
		pp := prios[rnd.IntN(len(prios))]
		lo := grid(24) - 4*ms
		ivs = append(ivs, interval{lo, lo + grid(12) - 2*ms, pp.phase, pp.prio})
	}
	return start, end, ivs
}

// checkDecompose draws one evidence set and checks that the sweep
// equals the oracle on it as drawn and shuffled, and that the
// breakdown sums exactly to the window.
func checkDecompose(t *testing.T, rnd *rand.Rand, sw *sweep, prios []prioPhase) {
	t.Helper()
	start, end, ivs := randomEvidence(rnd, prios)
	want := decomposeRef(start, end, ivs)
	if got, span := want.Total(), max(end-start, 0); got != span {
		t.Fatalf("window [%v, %v]: oracle phases sum %v", start, end, got)
	}
	for _, order := range []string{"generated", "shuffled"} {
		if order == "shuffled" {
			shuffle(rnd, ivs)
			if ref := decomposeRef(start, end, ivs); ref != want {
				t.Fatalf("oracle depends on interval order: %v vs %v over %+v", ref, want, ivs)
			}
		}
		if got := sw.decompose(start, end, ivs); got != want {
			t.Fatalf("%s order, window [%v, %v] over %+v:\nsweep  %v\noracle %v", order, start, end, ivs, got, want)
		}
	}
}

// TestDecomposeMatchesReference checks the counted edge sweep against
// the quadratic oracle on random interval sets. The seeds are logged
// so a failure replays exactly.
func TestDecomposeMatchesReference(t *testing.T) {
	seed1 := uint64(time.Now().UnixNano())
	seed2 := bits.Reverse64(uint64(time.Now().UnixNano()))
	t.Logf("seed1 = %d, seed2 = %d", seed1, seed2)
	rnd := rand.New(rand.NewPCG(seed1, seed2))
	prios := evidencePrios(t)
	var sw sweep // one scratch for every case, as an analyzer reuses it
	for range 5000 {
		checkDecompose(t, rnd, &sw, prios)
	}
}

// FuzzDecompose searches the same generator's seed space for a set on
// which the sweep and the oracle disagree.
func FuzzDecompose(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(0), uint64(0))
	prios := evidencePrios(f)
	f.Fuzz(func(t *testing.T, seed1, seed2 uint64) {
		var sw sweep
		checkDecompose(t, rand.New(rand.NewPCG(seed1, seed2)), &sw, prios)
	})
}
