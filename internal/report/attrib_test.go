package report

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/repart"
)

// checkNoLeakedSpans asserts the span stream drained: the only spans
// legitimately open when a simulation ends are the daemon worker loops.
func checkNoLeakedSpans(t *testing.T, collectors ...*obs.Collector) {
	t.Helper()
	for _, c := range collectors {
		for _, s := range c.CheckClosed() {
			if s.Cat == "htex" && s.Name == "worker" {
				continue
			}
			t.Errorf("scope %s: leaked open span %s/%s on track %s", c.Scope(), s.Cat, s.Name, s.Track)
		}
	}
}

// TestAttributionInvariant locks the engine's core contract on the
// real workloads: for every task in the Table 1 bursts and in the
// phase-shift scenario, the phase vector sums EXACTLY to the task's
// end-to-end duration, and no time lands in the "other" bucket.
func TestAttributionInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full instrumented bursts in -short mode")
	}
	_, collectors, err := core.RunTable1(true, "")
	if err != nil {
		t.Fatal(err)
	}
	checkNoLeakedSpans(t, collectors...)

	spec, err := repart.ParseSpec("")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := core.RunPhaseShift(core.PhaseShiftConfig{Observe: true, Repart: &spec})
	if err != nil {
		t.Fatal(err)
	}
	ps.Obs.SetScope("phaseshift/controller")
	collectors = append(collectors, ps.Obs)

	rep := analyze.Analyze(collectors...)
	if len(rep.Tasks) == 0 {
		t.Fatal("no tasks attributed")
	}
	for i := range rep.Tasks {
		ta := &rep.Tasks[i]
		if got, want := ta.Phases.Total(), ta.Duration(); got != want {
			t.Errorf("%s task %d: phase sum %v != duration %v (off by %v)",
				ta.Scope, ta.Task, got, want, want-got)
		}
		if ta.Phases[analyze.PhaseOther] != 0 {
			t.Errorf("%s task %d: other = %v, want 0",
				ta.Scope, ta.Task, ta.Phases[analyze.PhaseOther])
		}
	}
	// The burst's dominant phases must be populated: compute everywhere,
	// kernel_queue under time-sharing.
	var compute, kq int
	for i := range rep.Tasks {
		if rep.Tasks[i].Phases[analyze.PhaseCompute] > 0 {
			compute++
		}
		if strings.HasPrefix(rep.Tasks[i].Scope, "table1/timeshare") &&
			rep.Tasks[i].Phases[analyze.PhaseKernelQueue] > 0 {
			kq++
		}
	}
	if compute == 0 {
		t.Error("no task has compute time")
	}
	if kq == 0 {
		t.Error("no time-share task has kernel-queue time")
	}
}

// TestObservedCollectorsDrainCleanly asserts the open-span leak check
// over the whole instrumented grid: when a simulation ends, every span
// except the daemon worker loops must have been closed.
func TestObservedCollectorsDrainCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("full instrumented grid in -short mode")
	}
	collectors, err := ObservedCollectors(2, "llama-complete:10s:0.9")
	if err != nil {
		t.Fatal(err)
	}
	checkNoLeakedSpans(t, collectors...)
}

// TestObservedCollectorsLeaveNoGoroutines: every grid cell and Table 1
// burst closes its Env once its result is read, so the instrumented
// runs leave no parked worker or pooled goroutine behind.
func TestObservedCollectorsLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := ObservedCollectors(2, "llama-complete:10s:0.9"); err != nil {
		t.Fatal(err)
	}
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > before; i++ {
		time.Sleep(5 * time.Millisecond) // exiting goroutines count briefly
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Fatalf("goroutines: %d before ObservedCollectors, %d after", before, n)
	}
}

// TestTraceDiffKernelQueueStory locks the paper's Fig. 4/5 explanation
// in attribution terms: the latency gap between 4-process time-sharing
// and 25%-capped MPS is dominated by kernel dispatch delay.
func TestTraceDiffKernelQueueStory(t *testing.T) {
	if testing.Short() {
		t.Skip("full instrumented bursts in -short mode")
	}
	_, collectors, err := core.RunTable1(true, "")
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze.Analyze(collectors...)
	byScope := func(scope string) *analyze.Report {
		sub := &analyze.Report{}
		for _, ta := range rep.Tasks {
			if ta.Scope == scope {
				sub.Tasks = append(sub.Tasks, ta)
			}
		}
		if len(sub.Tasks) == 0 {
			t.Fatalf("no tasks in scope %s", scope)
		}
		return sub
	}
	d := analyze.Diff(byScope("table1/timeshare"), byScope("table1/mps"), "timeshare", "mps")
	if d.Dominant != "kernel_queue" {
		t.Errorf("dominant phase = %q, want kernel_queue (diff: %+v)", d.Dominant, d)
	}
	if d.DeltaNS >= 0 {
		t.Errorf("MPS should be faster than time-share, delta = %d ns", d.DeltaNS)
	}
}

// TestAttributionParallelDeterminism extends the harness determinism
// contract to the attribution artifacts of ObservedCollectors: the
// attribution JSON, folded stacks, the SLO alert stream, and the
// tracediff JSON must be byte-identical at any worker count.
func TestAttributionParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full instrumented grid in -short mode")
	}
	const slo = "llama-complete:10s:0.9"
	render := func(workers int) (attrib, flame, alerts, diff []byte) {
		prev := harness.SetParallelism(workers)
		defer harness.SetParallelism(prev)
		cs, err := ObservedCollectors(2, slo)
		if err != nil {
			t.Fatalf("ObservedCollectors with %d workers: %v", workers, err)
		}
		rep := analyze.Analyze(cs...)
		var aw, fw, lw bytes.Buffer
		if err := rep.WriteJSON(&aw); err != nil {
			t.Fatal(err)
		}
		if err := analyze.WriteFolded(&fw, rep); err != nil {
			t.Fatal(err)
		}
		if err := analyze.WriteAlerts(&lw, cs...); err != nil {
			t.Fatal(err)
		}
		back, err := analyze.ReadReport(bytes.NewReader(aw.Bytes()))
		if err != nil {
			t.Fatalf("re-reading attribution JSON: %v", err)
		}
		byScope := func(scope string) *analyze.Report {
			sub := &analyze.Report{}
			for _, ta := range back.Tasks {
				if ta.Scope == scope {
					sub.Tasks = append(sub.Tasks, ta)
				}
			}
			return sub
		}
		var dw bytes.Buffer
		d := analyze.Diff(byScope("table1/timeshare"), byScope("table1/mps"), "timeshare", "mps")
		if err := d.WriteJSON(&dw); err != nil {
			t.Fatal(err)
		}
		return aw.Bytes(), fw.Bytes(), lw.Bytes(), dw.Bytes()
	}
	seqA, seqF, seqL, seqD := render(1)
	if len(seqA) == 0 || len(seqF) == 0 {
		t.Fatal("sequential attribution artifacts are empty")
	}
	parA, parF, parL, parD := render(4)
	if !bytes.Equal(seqA, parA) {
		t.Fatalf("attribution JSON differs:\n%s", firstDiff(seqA, parA))
	}
	if !bytes.Equal(seqF, parF) {
		t.Fatalf("folded stacks differ:\n%s", firstDiff(seqF, parF))
	}
	if !bytes.Equal(seqL, parL) {
		t.Fatalf("alert stream differs:\n%s", firstDiff(seqL, parL))
	}
	if !bytes.Equal(seqD, parD) {
		t.Fatalf("tracediff JSON differs:\n%s", firstDiff(seqD, parD))
	}
}

// TestAttributionSection smoke-tests the human-readable artifact: it
// must render blame profiles and the dominant-phase callout.
func TestAttributionSection(t *testing.T) {
	if testing.Short() {
		t.Skip("full instrumented bursts in -short mode")
	}
	var buf bytes.Buffer
	if _, err := Attribution(&buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Latency attribution",
		"kernel_queue",
		"table1/mps",
		"<- dominant",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("attrib section missing %q", want)
		}
	}
}
