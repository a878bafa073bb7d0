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
// gap phase by phase. The bursts always run observed, since the
// attribution reads their spans; a non-empty slo spec attaches the
// burn-rate monitor too. It returns the bursts' collectors.
func Attribution(w io.Writer, slo string) (*Runs, error) {
	header(w, "Latency attribution — where each task's time goes, per multiplexing technique")
	_, collectors, err := core.RunTable1(true, slo)
	if err != nil {
		return nil, err
	}
	rep := analyze.Analyze(collectors...)
	fmt.Fprintf(w, "\nblame profiles (mean ms per task per phase; %d tasks total):\n\n", len(rep.Tasks))
	if err := rep.WriteText(w); err != nil {
		return nil, err
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
	return &Runs{Collectors: collectors}, d.WriteText(w)
}
