package report

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
)

// ObservedCollectors reruns the Fig. 4/5 multiplexing grid and the
// Table 1 bursts with deep instrumentation enabled and returns every
// run's collector in a fixed order (fig45 grid cells first, then the
// Table 1 rows). The grid cells are independent simulations run
// through the harness, which preserves input order regardless of
// worker count — so the list, and anything exported from it, is
// deterministic at any parallelism level. A non-empty slo spec (see
// core.Options.SLO) attaches the burn-rate monitor to every run.
func ObservedCollectors(completions int, slo string) ([]*obs.Collector, error) {
	if completions <= 0 {
		completions = 100
	}
	modes := []core.Mode{core.ModeTimeshare, core.ModeMPS, core.ModeMIG}
	const procsPerMode = 4
	cells, err := harness.Map(len(modes)*procsPerMode, func(i int) (*obs.Collector, error) {
		m, n := modes[i/procsPerMode], i%procsPerMode+1
		r, err := core.RunMultiplex(core.MultiplexConfig{
			Mode: m, Processes: n, Completions: completions, Observe: true, SLO: slo,
		})
		if err != nil {
			return nil, fmt.Errorf("report: observed %s n=%d: %w", m, n, err)
		}
		r.Obs.SetScope(fmt.Sprintf("fig45/%s/p%d", m, n))
		return r.Obs, nil
	})
	if err != nil {
		return nil, err
	}
	_, t1, err := core.RunTable1Observed(true, slo)
	if err != nil {
		return nil, err
	}
	return append(cells, t1...), nil
}
