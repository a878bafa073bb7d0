package analyze_test

import (
	"testing"

	"repro/internal/obs/analyze"
	"repro/internal/report"
)

// sinkReport keeps the benchmarked call's result live.
var sinkReport *analyze.Report

// BenchmarkAnalyzeObserved times critical-path attribution over the
// paper's Fig 4/5 grid and Table 1 bursts at 100 completions per cell,
// with full spans: the attribution the paper-observed benchmark
// workload exports. Building the collectors is outside the timer.
func BenchmarkAnalyzeObserved(b *testing.B) {
	cs, err := report.ObservedCollectors(100, "llama-complete:10s:0.9")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkReport = analyze.Analyze(cs...)
	}
}
