package analyze_test

import (
	"testing"

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
