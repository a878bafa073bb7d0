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
