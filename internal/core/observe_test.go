package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
)

// TestObservingLeavesVirtualOutputs pins the rule that telemetry never
// leaks into virtual outputs: every Fig. 4/5 cell and every Table 1 row
// gives the same makespan, latency samples, utilization and context
// switches run plain, run observed, and run observed with an SLO
// monitor attached, with and without a fault schedule. The paper
// artifacts rely on it to print from the runs they export.
func TestObservingLeavesVirtualOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 4/5 grid and Table 1 bursts in -short mode")
	}
	t.Cleanup(func() { SetChaos(nil) })
	const slo = "llama-complete:12s:0.9"
	variants := []struct {
		name    string
		observe bool
		slo     string
	}{{"observed", true, ""}, {"observed+slo", true, slo}}
	for _, chaos := range []*fault.Spec{nil, {Seed: 1, Rate: 0.5}} {
		SetChaos(chaos)
		label := "no chaos"
		if chaos != nil {
			label = chaos.String()
		}
		for _, mode := range []Mode{ModeTimeshare, ModeMPS, ModeMIG} {
			for n := 1; n <= 4; n++ {
				cfg := MultiplexConfig{Mode: mode, Processes: n, Completions: 20}
				plain, err := RunMultiplex(cfg)
				if err != nil {
					t.Fatalf("%s %s p%d: %v", label, mode, n, err)
				}
				for _, v := range variants {
					cfg.Observe, cfg.SLO = v.observe, v.slo
					got, err := RunMultiplex(cfg)
					if err != nil {
						t.Fatalf("%s %s p%d %s: %v", label, mode, n, v.name, err)
					}
					if diff := multiplexDiff(plain, got); diff != "" {
						t.Errorf("%s %s p%d %s: %s", label, mode, n, v.name, diff)
					}
				}
			}
		}
		plain, _, err := RunTable1(false, "")
		if err != nil {
			t.Fatalf("%s table1: %v", label, err)
		}
		for _, v := range variants {
			rows, _, err := RunTable1(v.observe, v.slo)
			if err != nil {
				t.Fatalf("%s table1 %s: %v", label, v.name, err)
			}
			if !reflect.DeepEqual(plain, rows) {
				t.Errorf("%s table1 %s: rows differ:\nplain    %+v\nobserved %+v", label, v.name, plain, rows)
			}
		}
	}
}

// multiplexDiff names the first virtual output on which two runs of one
// Fig. 4/5 cell disagree, or returns "".
func multiplexDiff(a, b *MultiplexResult) string {
	switch {
	case a.Makespan != b.Makespan:
		return fmt.Sprintf("makespan %v vs %v", a.Makespan, b.Makespan)
	case !slices.Equal(a.Latencies.Samples(), b.Latencies.Samples()):
		return fmt.Sprintf("latency samples differ (mean %v vs %v)", a.MeanLatency(), b.MeanLatency())
	case a.Utilization != b.Utilization:
		return fmt.Sprintf("utilization %v vs %v", a.Utilization, b.Utilization)
	case a.ContextSwitches != b.ContextSwitches:
		return fmt.Sprintf("context switches %d vs %d", a.ContextSwitches, b.ContextSwitches)
	case a.Failed != b.Failed:
		return fmt.Sprintf("failed %d vs %d", a.Failed, b.Failed)
	}
	return ""
}
