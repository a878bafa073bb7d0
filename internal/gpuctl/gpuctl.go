// Package gpuctl models the NVIDIA control plane the paper's Parsl
// extension drives: CUDA_VISIBLE_DEVICES device selection (including
// MIG UUIDs), the nvidia-cuda-mps-control daemon with active-thread
// percentages, and nvidia-smi-style MIG administration.
//
// The environment-variable assembly here is real, reusable logic — a
// worker launched on actual hardware could export exactly these
// variables. In this repository the variables are consumed by
// Node.OpenContext, which performs what the CUDA runtime would do at
// client-process start: pick the first visible device, resolve MIG
// UUIDs, apply the MPS percentage, and create a simgpu context.
package gpuctl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Environment variable names. The paper's prose uses both
// CUDA_MPS_ACTIVE_GPU_PERCENTAGE (§4.1) and
// CUDA_MPS_ACTIVE_THREAD_PERCENTAGE (§4.1); the real variable is the
// latter, and we accept both with THREAD taking precedence.
const (
	EnvVisibleDevices = "CUDA_VISIBLE_DEVICES"
	EnvMPSThreadPct   = "CUDA_MPS_ACTIVE_THREAD_PERCENTAGE"
	EnvMPSGPUPct      = "CUDA_MPS_ACTIVE_GPU_PERCENTAGE"
)

// ErrNoDevice is returned when no usable device is visible to a
// client.
var ErrNoDevice = errors.New("gpuctl: no visible CUDA device")

// RefKind distinguishes accelerator reference syntaxes.
type RefKind int

const (
	// RefIndex is a plain device ordinal, e.g. "0".
	RefIndex RefKind = iota
	// RefGPUUUID is a full-device UUID, e.g. "GPU-abc".
	RefGPUUUID
	// RefMIGUUID is a MIG instance UUID, e.g. "MIG-gpu0-1-3g.40gb".
	RefMIGUUID
)

// Ref is one parsed accelerator reference.
type Ref struct {
	Kind  RefKind
	Index int    // RefIndex
	UUID  string // RefGPUUUID / RefMIGUUID
}

// String formats the reference in CUDA_VISIBLE_DEVICES syntax.
func (r Ref) String() string {
	if r.Kind == RefIndex {
		return strconv.Itoa(r.Index)
	}
	return r.UUID
}

// ParseRef parses a single accelerator reference.
func ParseRef(s string) (Ref, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return Ref{}, errors.New("gpuctl: empty accelerator reference")
	case strings.HasPrefix(s, "MIG-"):
		return Ref{Kind: RefMIGUUID, UUID: s}, nil
	case strings.HasPrefix(s, "GPU-"):
		return Ref{Kind: RefGPUUUID, UUID: s}, nil
	default:
		i, err := strconv.Atoi(s)
		if err != nil || i < 0 {
			return Ref{}, fmt.Errorf("gpuctl: invalid accelerator reference %q", s)
		}
		return Ref{Kind: RefIndex, Index: i}, nil
	}
}

// ParseVisibleDevices parses a CUDA_VISIBLE_DEVICES value. Mirroring
// CUDA's behaviour, an invalid entry silently truncates the list at
// that point rather than erroring.
func ParseVisibleDevices(s string) []Ref {
	var refs []Ref
	for _, part := range strings.Split(s, ",") {
		r, err := ParseRef(part)
		if err != nil {
			break
		}
		refs = append(refs, r)
	}
	return refs
}

// FormatVisibleDevices renders refs as a CUDA_VISIBLE_DEVICES value.
func FormatVisibleDevices(refs []Ref) string {
	parts := make([]string, len(refs))
	for i, r := range refs {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

// Binding is the per-worker accelerator assignment the extended Parsl
// executor computes before starting a worker process (paper §4.1): an
// accelerator reference plus an optional GPU percentage.
type Binding struct {
	// Accelerator is a device index, GPU UUID, or MIG UUID, exactly as
	// listed in the executor's available_accelerators.
	Accelerator string
	// GPUPercent caps the worker's SM share under MPS; 0 means
	// unlimited (variable not exported).
	GPUPercent int
}

// Environ returns the environment variables to export before the
// worker process starts. This is the paper's core mechanism: the MPS
// percentage must be in the environment before process start and
// cannot change for the life of the process.
func (b Binding) Environ() map[string]string {
	env := map[string]string{EnvVisibleDevices: b.Accelerator}
	if b.GPUPercent > 0 && b.GPUPercent < 100 {
		env[EnvMPSThreadPct] = strconv.Itoa(b.GPUPercent)
	}
	return env
}

// PercentFromEnv resolves the MPS active-thread percentage from a
// client environment: THREAD takes precedence over the GPU alias;
// absent or invalid values mean "no cap" (0). Values are clamped to
// [1, 100].
func PercentFromEnv(env map[string]string) int {
	for _, key := range []string{EnvMPSThreadPct, EnvMPSGPUPct} {
		if v, ok := env[key]; ok {
			pct, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				continue
			}
			if pct < 1 {
				pct = 1
			}
			if pct > 100 {
				pct = 100
			}
			return pct
		}
	}
	return 0
}
