package core

import (
	"repro/internal/fault"
)

// globalChaos is the process-wide chaos spec installed by SetChaos;
// Options.Chaos overrides it per platform.
var globalChaos *fault.Spec

// SetChaos installs (or, with nil, removes) a process-wide chaos spec
// applied to every subsequently built Platform whose Options.Chaos is
// nil. The CLIs' -chaos flag routes here so existing experiment
// drivers gain fault injection without signature changes.
func SetChaos(s *fault.Spec) { globalChaos = s }

// RunChaosBurst runs the Table 1 burst workload (4 concurrent LLaMa
// processes under MPS, 32 completions) with the given fault schedule.
// It is the chaos soak's unit of work: the returned result carries
// the invariant checker, the injected-fault count, and how many
// completions failed terminally.
func RunChaosBurst(spec fault.Spec) (*MultiplexResult, error) {
	return RunMultiplex(MultiplexConfig{
		Mode:        ModeMPS,
		Processes:   4,
		Completions: 32,
		Chaos:       &spec,
	})
}
