// Package rightsize implements the paper's second future-work item
// (§7): estimating how much GPU an application actually needs, so a
// partition (MPS percentage or MIG profile) can be sized to it.
//
// Two estimators are provided:
//
//   - measurement-based: sweep a workload across SM budgets (the
//     experiment behind Fig. 2) and find the knee of the latency
//     curve;
//   - static: read an SM demand off the workload's kernel stream
//     (DemandSMs; the paper's "hints ... based on static analysis of
//     applications").
package rightsize

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/harness"
	"repro/internal/simgpu"
)

// ErrEmptyCurve is returned when no measurements are available.
var ErrEmptyCurve = errors.New("rightsize: empty curve")

// Point is one measurement: latency at an SM budget.
type Point struct {
	// SMs is the SM budget the workload ran under.
	SMs int
	// Percent is the MPS percentage producing that budget (0 if the
	// point was built directly from SMs).
	Percent int
	// Latency is the measured (or predicted) workload latency.
	Latency time.Duration
}

// Curve is a latency-vs-SMs profile, kept sorted by SMs.
type Curve []Point

// Sort orders the curve by SM budget.
func (c Curve) Sort() {
	sort.Slice(c, func(i, j int) bool { return c[i].SMs < c[j].SMs })
}

// Min returns the lowest latency on the curve.
func (c Curve) Min() time.Duration {
	best := time.Duration(math.MaxInt64)
	for _, p := range c {
		if p.Latency < best {
			best = p.Latency
		}
	}
	return best
}

// Knee returns the smallest SM budget whose latency is within
// tolerance (e.g. 0.05 = 5%) of the curve's best latency — the
// paper's "does not benefit from more SMs even if they are available"
// threshold.
func Knee(c Curve, tolerance float64) (Point, error) {
	if len(c) == 0 {
		return Point{}, ErrEmptyCurve
	}
	c.Sort()
	best := float64(c.Min())
	for _, p := range c {
		if float64(p.Latency) <= best*(1+tolerance) {
			return p, nil
		}
	}
	return c[len(c)-1], nil
}

// Sweep measures latency at each percentage via the caller-provided
// probe (typically: build a fresh simulation, run the workload under
// that MPS cap, return its latency). Each probe owns a fresh
// simulation, so the points are measured concurrently; the measure
// function must therefore not share mutable state across calls.
func Sweep(deviceSMs int, percents []int, measure func(pct int) (time.Duration, error)) (Curve, error) {
	for _, pct := range percents {
		if pct < 1 || pct > 100 {
			return nil, fmt.Errorf("rightsize: percentage %d out of range", pct)
		}
	}
	points, err := harness.Map(len(percents), func(i int) (Point, error) {
		pct := percents[i]
		lat, err := measure(pct)
		if err != nil {
			return Point{}, fmt.Errorf("rightsize: measuring %d%%: %w", pct, err)
		}
		return Point{
			SMs:     simgpu.PercentSMs(deviceSMs, pct),
			Percent: pct,
			Latency: lat,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	curve := Curve(points)
	curve.Sort()
	return curve, nil
}

// Recommendation is a right-sizing decision for one workload.
type Recommendation struct {
	// KneeSMs is the saturation point.
	KneeSMs int
	// KneeLatency is the latency there.
	KneeLatency time.Duration
	// MPSPercent is the smallest percentage granting KneeSMs.
	MPSPercent int
	// MIGProfile is the smallest profile with enough SMs and memory
	// (empty when the device has no MIG or nothing fits).
	MIGProfile string
	// TenantsPerGPU is how many such partitions fit compute-wise
	// under MPS.
	TenantsPerGPU int
}

// Recommend derives partition choices from a measured curve.
func Recommend(spec simgpu.DeviceSpec, c Curve, tolerance float64, memNeeded int64) (Recommendation, error) {
	knee, err := Knee(c, tolerance)
	if err != nil {
		return Recommendation{}, err
	}
	rec := Recommendation{
		KneeSMs:     knee.SMs,
		KneeLatency: knee.Latency,
		MPSPercent:  simgpu.MinPercent(spec.SMs, knee.SMs),
		TenantsPerGPU: func() int {
			if knee.SMs <= 0 {
				return 1
			}
			n := spec.SMs / knee.SMs
			if n < 1 {
				n = 1
			}
			return n
		}(),
	}
	profiles := simgpu.MIGProfilesFor(spec)
	if i := simgpu.CoveringProfile(&spec, profiles, knee.SMs, memNeeded); i >= 0 {
		rec.MIGProfile = profiles[i].Name
	}
	return rec, nil
}

// DemandSMs is the cheapest static hint: the largest per-kernel
// parallelism bound, weighted by where the time goes — kernels
// covering the top `coverage` fraction of total duration at full
// budget determine the demand.
func DemandSMs(spec simgpu.DeviceSpec, kernels []simgpu.Kernel, coverage float64) int {
	if len(kernels) == 0 {
		return 1
	}
	perSM := spec.PerSMFLOPS()
	type kd struct {
		maxSMs int
		dur    float64
	}
	var items []kd
	var total float64
	for _, k := range kernels {
		eff := float64(spec.SMs)
		if k.MaxSMs > 0 && float64(k.MaxSMs) < eff {
			eff = float64(k.MaxSMs)
		}
		var compute, mem float64
		if k.FLOPs > 0 {
			compute = k.FLOPs / (eff * perSM)
		}
		if k.Bytes > 0 {
			mem = k.Bytes / spec.MemBW
		}
		d := k.Overhead.Seconds() + math.Max(compute, mem)
		m := k.MaxSMs
		if m <= 0 || m > spec.SMs {
			m = spec.SMs
		}
		items = append(items, kd{maxSMs: m, dur: d})
		total += d
	}
	// Take the duration-weighted demand: smallest S such that kernels
	// with maxSMs <= S cover at least `coverage` of total time.
	sort.Slice(items, func(i, j int) bool { return items[i].maxSMs < items[j].maxSMs })
	var acc float64
	for _, it := range items {
		acc += it.dur
		if acc >= coverage*total {
			return it.maxSMs
		}
	}
	return items[len(items)-1].maxSMs
}
