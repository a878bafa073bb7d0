package simgpu

import (
	"errors"
	"time"

	"repro/internal/devent"
)

// ErrAborted is the failure delivered to kernel completion events when
// their context is destroyed (process kill / partition reconfigure).
var ErrAborted = errors.New("simgpu: kernel aborted (context destroyed)")

// Kernel describes one unit of GPU work under the roofline model.
type Kernel struct {
	// Name labels the kernel for traces.
	Name string
	// FLOPs is the total floating-point work.
	FLOPs float64
	// Bytes is the total memory traffic (reads+writes); the kernel is
	// memory-bound when Bytes/bandwidth exceeds its compute time.
	Bytes float64
	// MaxSMs bounds how many SMs the kernel can productively use
	// (grid size / occupancy). 0 means "unbounded" (whole device).
	// Batch-1 LLM decode kernels have small MaxSMs — the mechanism
	// behind Fig. 2's saturation at ~20 SMs.
	MaxSMs int
	// Overhead is the fixed launch cost paid once per kernel.
	Overhead time.Duration
	// Tag carries workload metadata (e.g. "train", "infer") for
	// per-phase accounting.
	Tag string
}

// Scale returns a copy of the kernel with work and traffic multiplied
// by f (used for batching).
func (k Kernel) Scale(f float64) Kernel {
	k.FLOPs *= f
	k.Bytes *= f
	return k
}

// KernelRecord reports a completed kernel: the value its completion
// event fires with.
type KernelRecord struct {
	Kernel  Kernel
	Context string
	Domain  string
	Enqueue time.Duration
	Start   time.Duration
	End     time.Duration
	SMs     float64 // SMs held at completion time
}

// launched is the engine's per-kernel bookkeeping, and the one object
// a Launch allocates (a Run uses its context's run slot): the
// completion event and the record it fires with live inside it, and it
// has no timer of its own (the domain arms one, for the running kernel
// due first). rec holds the kernel, its context and domain, and its
// enqueue and start times from the moment they are known, and its SM
// share as of the last share change; complete adds End.
type launched struct {
	ctx     *Context
	done    devent.Event // fires with &rec, or fails with the abort error
	rec     KernelRecord
	started bool
	running bool
	frac    float64 // remaining fraction of the kernel
	dur     time.Duration
	lastEv  time.Duration
	extra   time.Duration // context-switch overhead folded into this run
	fin     bool
}
