package report

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/obs/analyze"
)

// Attribution renders the human-readable latency-attribution section:
// the Table 1 burst per technique, each task's end-to-end time
// decomposed into phases and aggregated into per-scope blame profiles,
// plus the time-share vs. MPS diff that explains the paper's latency
// gap phase by phase.
func Attribution(w io.Writer, completions int) error {
	header(w, "Latency attribution — where each task's time goes, per multiplexing technique")
	_, collectors, err := core.RunTable1Observed(true, "")
	if err != nil {
		return err
	}
	rep := analyze.Analyze(collectors...)
	fmt.Fprintf(w, "\nblame profiles (mean ms per task per phase; %d tasks total):\n\n", len(rep.Tasks))
	if err := rep.WriteText(w); err != nil {
		return err
	}

	// The paper's Fig. 4/5 story, restated as a trace diff: the
	// time-share → MPS latency win is a kernel-queue-delay win.
	byScope := func(scope string) *analyze.Report {
		sub := &analyze.Report{}
		for _, t := range rep.Tasks {
			if t.Scope == scope {
				sub.Tasks = append(sub.Tasks, t)
			}
		}
		return sub
	}
	d := analyze.Diff(
		byScope("table1/"+string(core.ModeTimeshare)),
		byScope("table1/"+string(core.ModeMPS)),
		"table1/timeshare", "table1/mps")
	fmt.Fprintln(w)
	return d.WriteText(w)
}
