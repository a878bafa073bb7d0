package report

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
)

// Observe selects how a paper renderer (Fig45, Table1, All) runs its
// simulations. The zero value runs them plain. On adds deep
// instrumentation for the telemetry exports, and a non-empty SLO spec
// (see core.Options.SLO) attaches the burn-rate monitor to every run.
// Observing never changes what a renderer prints.
type Observe struct {
	On  bool
	SLO string
}

// Runs is what a paper renderer ran, kept for its exports: the Fig. 2
// sweep and the Fig. 4/5 grid feed WriteFigureCSVs, and Collectors
// holds every grid cell's and Table 1 burst's collector in section
// order, for the telemetry files.
type Runs struct {
	Fig2       *core.Fig2Result
	Grid       []*core.MultiplexResult
	Collectors []*obs.Collector
}

// gridModes × 1..gridProcs processes are the Fig. 4/5 grid cells.
var gridModes = []core.Mode{core.ModeTimeshare, core.ModeMPS, core.ModeMIG}

const gridProcs = 4

// runGrid runs the 12 Fig. 4/5 cells, independent simulations, through
// the harness, which keeps them in mode-major order at any worker
// count, and scopes each cell's collector fig45/<mode>/p<n>.
func runGrid(completions int, o Observe) (*Runs, error) {
	cells, err := harness.Map(len(gridModes)*gridProcs, func(i int) (*core.MultiplexResult, error) {
		m, n := gridModes[i/gridProcs], i%gridProcs+1
		r, err := core.RunMultiplex(core.MultiplexConfig{
			Mode: m, Processes: n, Completions: completions, Observe: o.On, SLO: o.SLO,
		})
		if err != nil {
			return nil, fmt.Errorf("report: %s n=%d: %w", m, n, err)
		}
		r.Obs.SetScope(fmt.Sprintf("fig45/%s/p%d", m, n))
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	runs := &Runs{Grid: cells}
	for _, r := range cells {
		runs.Collectors = append(runs.Collectors, r.Obs)
	}
	return runs, nil
}

// ObservedCollectors runs the Fig. 4/5 grid and the Table 1 bursts
// observed, with the burn-rate monitor of a non-empty slo spec, and
// returns every run's collector: the grid cells first, then the Table 1
// rows, as `paperbench all` exports them. The order holds at any
// parallelism level, so anything exported from the list is
// deterministic.
func ObservedCollectors(completions int, slo string) ([]*obs.Collector, error) {
	grid, err := runGrid(completions, Observe{On: true, SLO: slo})
	if err != nil {
		return nil, err
	}
	_, t1, err := core.RunTable1(true, slo)
	if err != nil {
		return nil, err
	}
	return append(grid.Collectors, t1...), nil
}
