package fleet

import (
	"fmt"
	"math"
	"slices"

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
//   - running sums: every domain's percentage and memory sums, every
//     GPU's slice bitmap and memory-slice total, and the per-mode GPU
//     counts equal what their lists add up to, and every instance's
//     profile is its class table's entry;
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
		if f := gpuFrag(g, &c.classes[g.class]); math.Float64bits(f) != math.Float64bits(g.frag) {
			return fmt.Errorf("fleet: %s cached fragmentation %v, state scores %v", g.gpu.ID, g.frag, f)
		}
	}
	if n := c.countModes(); n != c.modes {
		return fmt.Errorf("fleet: per-mode GPU counts %v, GPUs are in modes %v", c.modes, n)
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
	k := &c.classes[g.class]
	id := g.gpu.ID
	if g.gpu.Spec != k.spec {
		return fmt.Errorf("fleet: %s spec differs from its class's", id)
	}
	var occupied simgpu.SliceMask
	memSl := 0
	for _, in := range g.insts {
		occupied |= in.span()
		memSl += in.prof.MemSlices
	}
	if occupied != g.occupied || memSl != g.memSlices {
		return fmt.Errorf("fleet: %s running occupancy %07b/%d memory slices, instances take %07b/%d",
			id, g.occupied, g.memSlices, occupied, memSl)
	}
	switch g.mode {
	case modeEmpty:
		if len(g.insts) != 0 || len(g.mps.shares) != 0 {
			return fmt.Errorf("fleet: %s empty but holds %d instances, %d shares", id, len(g.insts), len(g.mps.shares))
		}
	case modeMIG:
		if len(g.mps.shares) != 0 {
			return fmt.Errorf("fleet: %s in MIG mode but holds whole-GPU shares", id)
		}
		if len(g.insts) == 0 {
			return fmt.Errorf("fleet: %s in MIG mode with no instances", id)
		}
		if err := validateMIG(g, k, seen); err != nil {
			return err
		}
	case modeMPS:
		if len(g.insts) != 0 {
			return fmt.Errorf("fleet: %s in MPS mode but holds MIG instances", id)
		}
		if len(g.mps.shares) == 0 {
			return fmt.Errorf("fleet: %s in MPS mode with no shares", id)
		}
	default:
		return fmt.Errorf("fleet: %s has unknown mode %d", id, g.mode)
	}
	return validateDomain(id, "gpu", &g.mps, k.spec.SMs, k.spec.MemBytes, seen, func(sh *share) Segment {
		return Segment{GPU: id, Kind: SegMPS, Percent: sh.pct, SMs: sh.sms, MemBytes: sh.mem}
	})
}

func validateMIG(g *gpuState, k *specClass, seen map[string]Segment) error {
	spec := &k.spec
	id := g.gpu.ID
	var taken simgpu.SliceMask
	for _, in := range g.insts {
		if in.pi < 0 || in.pi >= len(k.profiles) || in.prof != &k.profiles[in.pi] {
			return fmt.Errorf("fleet: %s instance at %d is not profile %d of its class table", id, in.start, in.pi)
		}
		// The lattice's moves start only where simgpu.MIGStarts allows
		// and end inside the device.
		if !slices.Contains(k.lat.Moves(in.pi), simgpu.MIGMove{Start: in.start, Span: in.span()}) {
			return fmt.Errorf("fleet: %s instance %s at slice %d is not a move of the placement lattice", id, in.prof.Name, in.start)
		}
		if taken&in.span() != 0 {
			return fmt.Errorf("fleet: %s instance %s at %d overlaps another instance", id, in.prof.Name, in.start)
		}
		taken |= in.span()
		if len(in.shares) == 0 {
			return fmt.Errorf("fleet: %s instance %s has no shares (should be destroyed)", id, in.prof.Name)
		}
		in := in
		err := validateDomain(id, in.prof.Name, &in.domain, in.sms(spec), in.prof.MemBytes, seen, func(sh *share) Segment {
			return Segment{GPU: id, Kind: SegMIG, Profile: in.prof.Name, Start: in.start,
				Percent: sh.pct, SMs: sh.sms, MemBytes: sh.mem}
		})
		if err != nil {
			return err
		}
	}
	if g.memSlices > spec.MemSlices {
		return fmt.Errorf("fleet: %s uses %d memory slices of %d", id, g.memSlices, spec.MemSlices)
	}
	return nil
}

// validateDomain checks the MPS shares inside one domain (a MIG
// instance or a whole GPU) against its running sums and records each
// share's reconstructed segment into seen.
func validateDomain(gpuID, name string, dom *domain, domSMs int, domMem int64, seen map[string]Segment, segOf func(*share) Segment) error {
	pct, mem := 0, int64(0)
	for _, sh := range dom.shares {
		if sh.tenant == "" {
			return fmt.Errorf("fleet: %s/%s holds a share with no tenant", gpuID, name)
		}
		if _, dup := seen[sh.tenant]; dup {
			return fmt.Errorf("fleet: tenant %q holds two segments", sh.tenant)
		}
		if sh.pct < 1 || sh.pct > 100 {
			return fmt.Errorf("fleet: %s/%s tenant %q has share percentage %d", gpuID, name, sh.tenant, sh.pct)
		}
		if sh.sms != simgpu.PercentSMs(domSMs, sh.pct) {
			return fmt.Errorf("fleet: %s/%s tenant %q grant %d SMs ≠ ceil(%d%% of %d)", gpuID, name, sh.tenant, sh.sms, sh.pct, domSMs)
		}
		pct += sh.pct
		mem += sh.mem
		seen[sh.tenant] = segOf(sh)
	}
	if pct != dom.pct || mem != dom.mem {
		return fmt.Errorf("fleet: %s/%s running sums %d%%/%d bytes, shares add up to %d%%/%d bytes", gpuID, name, dom.pct, dom.mem, pct, mem)
	}
	if pct > 100 {
		return fmt.Errorf("fleet: %s/%s shares sum to %d%%", gpuID, name, pct)
	}
	if mem > domMem {
		return fmt.Errorf("fleet: %s/%s reserves %d bytes of %d", gpuID, name, mem, domMem)
	}
	return nil
}
