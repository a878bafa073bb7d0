package fleet

import (
	"fmt"
	"math"

	"repro/internal/simgpu"
)

// Validate checks every structural invariant of the cluster state and
// returns the first violation found. It is the oracle behind the
// property suite and the FuzzPlace target:
//
//   - mode exclusivity: a GPU holds MIG instances or whole-GPU MPS
//     shares, never both, and an empty GPU holds neither;
//   - lattice validity: every MIG instance starts at an allowed slice
//     for its size, fits on the device, overlaps no sibling, and the
//     instances' memory slices fit the device total;
//   - share validity: MPS percentages inside one domain (instance or
//     whole GPU) sum to ≤100 and reserved memory fits the domain;
//   - demand-met: every placed tenant's segment grants at least the
//     demanded SMs and memory;
//   - bookkeeping: byTenant, the arrival order, and the per-GPU share
//     lists describe exactly the same tenant set;
//   - cache: every GPU's cached fragmentation equals a fresh gpuFrag
//     of its state, bit for bit.
func (c *Cluster) Validate() error {
	if err := c.inv.Validate(); err != nil {
		return err
	}
	seen := make(map[string]Segment, len(c.byTenant))
	for _, g := range c.gpus {
		if err := c.validateGPU(g, seen); err != nil {
			return err
		}
		if f := gpuFrag(g); math.Float64bits(f) != math.Float64bits(g.frag) {
			return fmt.Errorf("fleet: %s cached fragmentation %v, state scores %v", g.gpu.ID, g.frag, f)
		}
	}
	if len(seen) != len(c.byTenant) {
		return fmt.Errorf("fleet: %d tenants on GPUs but %d placements recorded", len(seen), len(c.byTenant))
	}
	if len(c.order) != len(c.byTenant) {
		return fmt.Errorf("fleet: arrival order has %d tenants, placements %d", len(c.order), len(c.byTenant))
	}
	for _, t := range c.order {
		pl, ok := c.byTenant[t]
		if !ok {
			return fmt.Errorf("fleet: ordered tenant %q has no placement", t)
		}
		got, ok := seen[t]
		if !ok {
			return fmt.Errorf("fleet: tenant %q placed but absent from every GPU", t)
		}
		if got != pl.Segment {
			return fmt.Errorf("fleet: tenant %q segment mismatch: state %+v vs recorded %+v", t, got, pl.Segment)
		}
		d := pl.Demand
		if pl.Segment.SMs < d.SMs {
			return fmt.Errorf("fleet: tenant %q granted %d SMs < demanded %d", t, pl.Segment.SMs, d.SMs)
		}
		if pl.Segment.MemBytes < d.MemBytes {
			return fmt.Errorf("fleet: tenant %q granted %d bytes < demanded %d", t, pl.Segment.MemBytes, d.MemBytes)
		}
	}
	return nil
}

func (c *Cluster) validateGPU(g *gpuState, seen map[string]Segment) error {
	spec := g.gpu.Spec
	id := g.gpu.ID
	switch g.mode {
	case modeEmpty:
		if len(g.insts) != 0 || len(g.shares) != 0 {
			return fmt.Errorf("fleet: %s empty but holds %d instances, %d shares", id, len(g.insts), len(g.shares))
		}
		return nil
	case modeMIG:
		if len(g.shares) != 0 {
			return fmt.Errorf("fleet: %s in MIG mode but holds whole-GPU shares", id)
		}
		if len(g.insts) == 0 {
			return fmt.Errorf("fleet: %s in MIG mode with no instances", id)
		}
		return c.validateMIG(g, spec, id, seen)
	case modeMPS:
		if len(g.insts) != 0 {
			return fmt.Errorf("fleet: %s in MPS mode but holds MIG instances", id)
		}
		if len(g.shares) == 0 {
			return fmt.Errorf("fleet: %s in MPS mode with no shares", id)
		}
		return validateDomain(id, "gpu", g.shares, spec.SMs, spec.MemBytes, seen, func(sh *share) Segment {
			return Segment{GPU: id, Kind: SegMPS, Percent: sh.pct, SMs: sh.sms, MemBytes: sh.mem}
		})
	}
	return fmt.Errorf("fleet: %s has unknown mode %d", id, g.mode)
}

func (c *Cluster) validateMIG(g *gpuState, spec simgpu.DeviceSpec, id string, seen map[string]Segment) error {
	occupied := make([]bool, spec.MIGSlices)
	memSl := 0
	for _, in := range g.insts {
		validStart := false
		for _, s := range simgpu.MIGStarts(in.prof.Slices) {
			if s == in.start {
				validStart = true
				break
			}
		}
		if !validStart {
			return fmt.Errorf("fleet: %s instance %s starts at slice %d, not in the placement lattice", id, in.prof.Name, in.start)
		}
		if in.start+in.prof.Slices > spec.MIGSlices {
			return fmt.Errorf("fleet: %s instance %s at %d overruns the %d-slice device", id, in.prof.Name, in.start, spec.MIGSlices)
		}
		for s := in.start; s < in.start+in.prof.Slices; s++ {
			if occupied[s] {
				return fmt.Errorf("fleet: %s slice %d claimed by two instances", id, s)
			}
			occupied[s] = true
		}
		memSl += in.prof.MemSlices
		if len(in.shares) == 0 {
			return fmt.Errorf("fleet: %s instance %s has no shares (should be destroyed)", id, in.prof.Name)
		}
		in := in
		err := validateDomain(id, in.prof.Name, in.shares, in.sms(spec), in.prof.MemBytes, seen, func(sh *share) Segment {
			return Segment{GPU: id, Kind: SegMIG, Profile: in.prof.Name, Start: in.start,
				Percent: sh.pct, SMs: sh.sms, MemBytes: sh.mem}
		})
		if err != nil {
			return err
		}
	}
	if memSl > spec.MemSlices {
		return fmt.Errorf("fleet: %s uses %d memory slices of %d", id, memSl, spec.MemSlices)
	}
	return nil
}

// validateDomain checks the MPS shares inside one domain (a MIG
// instance or a whole GPU) and records each share's reconstructed
// segment into seen.
func validateDomain(gpuID, dom string, shares []*share, domSMs int, domMem int64, seen map[string]Segment, segOf func(*share) Segment) error {
	pct, mem := 0, int64(0)
	for _, sh := range shares {
		if sh.tenant == "" {
			return fmt.Errorf("fleet: %s/%s holds a share with no tenant", gpuID, dom)
		}
		if _, dup := seen[sh.tenant]; dup {
			return fmt.Errorf("fleet: tenant %q holds two segments", sh.tenant)
		}
		if sh.pct < 1 || sh.pct > 100 {
			return fmt.Errorf("fleet: %s/%s tenant %q has share percentage %d", gpuID, dom, sh.tenant, sh.pct)
		}
		if sh.sms != pctGrant(domSMs, sh.pct) {
			return fmt.Errorf("fleet: %s/%s tenant %q grant %d SMs ≠ ceil(%d%% of %d)", gpuID, dom, sh.tenant, sh.sms, sh.pct, domSMs)
		}
		pct += sh.pct
		mem += sh.mem
		seen[sh.tenant] = segOf(sh)
	}
	if pct > 100 {
		return fmt.Errorf("fleet: %s/%s shares sum to %d%%", gpuID, dom, pct)
	}
	if mem > domMem {
		return fmt.Errorf("fleet: %s/%s reserves %d bytes of %d", gpuID, dom, mem, domMem)
	}
	return nil
}
