package fleet

import (
	"math"
	"math/bits"

	"repro/internal/simgpu"
)

// Fragmentation quantifies stranded capacity: resources that are free
// on paper but unusable by any further placement given the remaining
// MIG profile lattice and the MPS percentage/memory coupling.
//
// Per GPU the metric is a [0,1] fraction:
//
//   - empty → 0 (a fully free GPU can host anything its spec allows);
//   - whole-GPU MPS → the imbalance between the free percentage
//     fraction and the free memory fraction — whichever of compute or
//     memory runs out first strands the surplus of the other;
//   - MIG → the max of the compute-side and memory-side stranding. The
//     compute side covers the free slices greedily with the largest
//     profiles that still fit (an estimate of the best case for a
//     future arrival: in a few states an exact search over the
//     lattice reaches more, see simgpu.MIGLatticeFor); slices the cover
//     misses — wrong start position in the placement lattice, or no
//     memory slices left to pair with them — are stranded, as is the
//     percentage/memory imbalance inside each partially-shared
//     instance. The memory side counts free memory slices the cover
//     does not claim. Every state's cover is tabulated once per
//     lattice, so scoring a GPU is a table lookup plus one imbalance
//     term per instance.
//
// The constant MIG-mode tax (the A100's 108 SMs expose only 98 under
// MIG) is deliberately excluded: it is a cost of the mode, not of any
// packing decision, and including it would let the metric punish MIG
// even when packed perfectly.
//
// Fleet fragmentation is the unweighted mean over the inventory, so a
// fully idle fleet scores 0 and gauges stay comparable as GPUs churn
// between modes.

// GPUFrag is one device's fragmentation sample.
type GPUFrag struct {
	ID   string
	Mode string
	Frag float64
}

// FragReport is a point-in-time fragmentation snapshot.
type FragReport struct {
	PerGPU []GPUFrag
	Fleet  float64
}

// Fragmentation reports the current snapshot from the per-GPU cache.
func (c *Cluster) Fragmentation() FragReport {
	rep := FragReport{PerGPU: make([]GPUFrag, 0, len(c.gpus)), Fleet: c.fleetFrag()}
	for _, g := range c.gpus {
		rep.PerGPU = append(rep.PerGPU, GPUFrag{ID: g.gpu.ID, Mode: g.mode.String(), Frag: g.frag})
	}
	return rep
}

// fleetFrag is the fleet mean of the cached per-GPU values, summed in
// inventory order.
func (c *Cluster) fleetFrag() float64 {
	if len(c.gpus) == 0 {
		return 0
	}
	sum := 0.0
	for _, g := range c.gpus {
		sum += g.frag
	}
	return sum / float64(len(c.gpus))
}

// gpuFrag scores one device from its state.
func gpuFrag(g *gpuState, k *specClass) float64 {
	switch g.mode {
	case modeMPS:
		return mpsFrag(&k.spec, g.mps.pct, g.mps.mem)
	case modeMIG:
		return migFrag(g, k, nil)
	}
	return 0
}

// mpsFrag is the whole-GPU MPS imbalance at usedPct percent and usedMem
// bytes taken: the smaller of the free percentage fraction and the free
// memory fraction is what the next arrival can actually have; the
// difference is stranded.
func mpsFrag(spec *simgpu.DeviceSpec, usedPct int, usedMem int64) float64 {
	freePct := float64(100-usedPct) / 100
	freeMem := 1.0
	if spec.MemBytes > 0 {
		freeMem = float64(spec.MemBytes-usedMem) / float64(spec.MemBytes)
	}
	return math.Abs(freePct - freeMem)
}

// tentative is one share the packer scores without applying it: pct
// percent and mem bytes inside the existing instance inst or, when inst
// is nil, inside a new instance of prof claiming the slices in span.
type tentative struct {
	inst *instance
	prof *simgpu.MIGProfile
	span simgpu.SliceMask
	pct  int
	mem  int64
}

// migFrag scores a MIG-mode device of class k with the tentative share
// t added (nil adds nothing): stranded compute slices (free but outside
// the tabulated cover), stranded memory slices, and intra-instance
// percentage/memory imbalance. The imbalance terms are summed over the
// existing instances in slice order and then a new instance, so a
// probe's score is bit-identical to scoring the state with the share
// appended.
func migFrag(g *gpuState, k *specClass, t *tentative) float64 {
	spec := &k.spec
	occupied, memUsed := g.occupied, g.memSlices
	newInst := t != nil && t.inst == nil
	if newInst {
		occupied |= t.span
		memUsed += t.prof.MemSlices
	}
	freeMemSl := spec.MemSlices - memUsed
	freeSl := spec.MIGSlices - bits.OnesCount64(uint64(occupied))
	cover := k.lat.Cover(occupied, freeMemSl)

	totalSMSl := float64(spec.MIGSlices)
	strandedSMFrac := float64(freeSl-int(cover.Slices)) / totalSMSl
	for _, in := range g.insts {
		used, mem := in.pct, in.mem
		if t != nil && in == t.inst {
			used += t.pct
			mem += t.mem
		}
		strandedSMFrac += imbalance(in.prof, used, mem, totalSMSl)
	}
	if newInst {
		strandedSMFrac += imbalance(t.prof, t.pct, t.mem, totalSMSl)
	}

	strandedMemFrac := 0.0
	if spec.MemSlices > 0 {
		strandedMemFrac = float64(freeMemSl-int(cover.MemSlices)) / float64(spec.MemSlices)
	}
	return math.Max(strandedSMFrac, strandedMemFrac)
}

// imbalance is one instance's stranding from its MPS shares: a share
// set that exhausts percentage before memory (or vice versa) strands
// the surplus, weighted by the instance's share of the device's
// totalSMSl slices. An instance with no shares contributes nothing; the
// cover accounts for dedicated capacity.
func imbalance(prof *simgpu.MIGProfile, usedPct int, usedMem int64, totalSMSl float64) float64 {
	if usedPct == 0 {
		return 0
	}
	freePct := float64(100-usedPct) / 100
	freeMem := 1.0
	if prof.MemBytes > 0 {
		freeMem = float64(prof.MemBytes-usedMem) / float64(prof.MemBytes)
	}
	return math.Abs(freePct-freeMem) * float64(prof.Slices) / totalSMSl
}
