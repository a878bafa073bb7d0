package analyze_test

import (
	"io"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/report"
)

// sinkReport keeps the benchmarked call's result live.
var sinkReport *analyze.Report

// observed builds the paper-observed workload's collectors at the given
// completions per cell.
func observed(tb testing.TB, completions int) []*obs.Collector {
	tb.Helper()
	cs, err := report.ObservedCollectors(completions, "llama-complete:10s:0.9")
	if err != nil {
		tb.Fatal(err)
	}
	return cs
}

// BenchmarkAnalyzeObserved times critical-path attribution over the
// paper's Fig 4/5 grid and Table 1 bursts at 100 completions per cell,
// with full spans: the attribution the paper-observed benchmark
// workload exports. Building the collectors is outside the timer.
func BenchmarkAnalyzeObserved(b *testing.B) {
	cs := observed(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkReport = analyze.Analyze(cs...)
	}
}

// analyzeObservedAllocs is BenchmarkAnalyzeObserved's allocs/op before
// run evidence was memoised; memoising must not raise it.
const analyzeObservedAllocs = 21434

func TestAnalyzeObservedAllocs(t *testing.T) {
	cs := observed(t, 100)
	if n := testing.AllocsPerRun(1, func() { sinkReport = analyze.Analyze(cs...) }); n > analyzeObservedAllocs {
		t.Errorf("Analyze allocates %v per call, want at most %d", n, analyzeObservedAllocs)
	}
}

// TestAttributeMatchesSorted checks memoised, merged attribution on the
// paper's own runs against the same evidence decomposed in one sorted
// edge list, task by task.
func TestAttributeMatchesSorted(t *testing.T) {
	cs := observed(t, 8)
	rep := analyze.Analyze(cs...)
	want := analyze.AttributeSorted(cs...)
	if len(rep.Tasks) != len(want) {
		t.Fatalf("%d tasks attributed, reference has %d", len(rep.Tasks), len(want))
	}
	for i := range want {
		if ta := &rep.Tasks[i]; ta.Phases != want[i] {
			t.Errorf("%s task %d:\nmerge  %v\nsorted %v", ta.Scope, ta.Task, ta.Phases, want[i])
		}
	}
}

// TestReadersBorrowSpans pins the zero-copy contract of the span
// readers: WriteChromeTrace and WriteAlerts over a snapshot collector
// make the same number of allocations at 1 k and at 16 k closed spans,
// and allocate nowhere near a copy of the larger window.
func TestReadersBorrowSpans(t *testing.T) {
	readers := []struct {
		name string
		read func(*obs.Collector) error
	}{
		{"WriteChromeTrace", func(c *obs.Collector) error { return obs.WriteChromeTrace(io.Discard, c) }},
		{"WriteAlerts", func(c *obs.Collector) error { return analyze.WriteAlerts(io.Discard, c) }},
	}
	const small, large = 1 << 10, 1 << 14
	for _, r := range readers {
		cs, cl := closedSpans(small), closedSpans(large)
		as := testing.AllocsPerRun(5, func() { r.read(cs) })
		al := testing.AllocsPerRun(5, func() { r.read(cl) })
		if al > as+2 {
			t.Errorf("%s: %v allocations at %d spans, %v at %d", r.name, as, small, al, large)
		}
		bs, bl := allocated(func() { r.read(cs) }), allocated(func() { r.read(cl) })
		if window := uint64((large - small) * unsafe.Sizeof(obs.Span{})); bl > bs+window/4 {
			t.Errorf("%s: %d bytes allocated at %d spans, %d at %d; a window copy is %d more",
				r.name, bs, small, bl, large, window)
		}
	}
}

// fixedClock is an obs.Clock that stands still.
type fixedClock time.Duration

func (c fixedClock) Now() time.Duration { return time.Duration(c) }

// closedSpans records n closed spans over four tracks, three of them
// SLO burn windows.
func closedSpans(n int) *obs.Collector {
	c := obs.New(fixedClock(time.Hour))
	c.SetScope("cell")
	for i := 0; i < n-3; i++ {
		at := time.Duration(i) * time.Millisecond
		c.AddSpan("htex", "run", string(rune('a'+i%4)), 0, at, at+time.Millisecond, obs.Int("task", i))
	}
	for i := 0; i < 3; i++ {
		c.AddSpan("slo", "burn", "slo", 0, time.Minute, 2*time.Minute,
			obs.String("app", "llama"), obs.Float("peak_burn", 2.5), obs.Int("events", 9))
	}
	return c
}

// allocated returns the bytes one call of f allocates, after a warm-up
// call, on one P so no other goroutine's allocations are counted.
func allocated(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
