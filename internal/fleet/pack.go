package fleet

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/simgpu"
)

// candidate is one feasible segment for a demand, scored for the
// greedy choice.
type candidate struct {
	g    *gpuState
	kind SegmentKind
	inst *instance // existing instance to share (nil → new instance or whole-GPU)
	// prof and pi are the MIG profile (SegMIG) and its index in the
	// class profile table.
	prof  *simgpu.MIGProfile
	pi    int
	start int
	pct   int
	sms   int
	// delta is the candidate GPU's fragmentation change if chosen — the
	// greedy objective ("lowest-fragmentation feasible segment").
	delta float64
	// waste is the SM overshoot of the grant over the demand.
	waste int
	// memWaste is the memory overshoot of a dedicated new instance
	// (shares reserve exactly the demand, so theirs is 0).
	memWaste int64
	// wasEmpty marks candidates that would claim an untouched GPU;
	// ties prefer consolidating onto GPUs already in use.
	wasEmpty bool
}

// better is the deterministic total order of the greedy choice:
// smallest fragmentation increase, then tightest SM fit, then tightest
// memory fit, then already-used GPUs over empty ones, then inventory
// order, then sharing an existing instance over cutting a new one,
// then the lowest start slice.
func (a *candidate) better(b *candidate) bool {
	if a.delta != b.delta {
		return a.delta < b.delta
	}
	if a.waste != b.waste {
		return a.waste < b.waste
	}
	if a.memWaste != b.memWaste {
		return a.memWaste < b.memWaste
	}
	if a.wasEmpty != b.wasEmpty {
		return !a.wasEmpty
	}
	if a.g.idx != b.g.idx {
		return a.g.idx < b.g.idx
	}
	aShare, bShare := a.inst != nil, b.inst != nil
	if aShare != bShare {
		return aShare
	}
	return a.start < b.start
}

// picker keeps the best candidate considered so far.
type picker struct {
	best  candidate
	found bool
}

func (p *picker) consider(c *candidate) {
	if !p.found || c.better(&p.best) {
		p.best, p.found = *c, true
	}
}

// Place finds the lowest-fragmentation feasible segment for the demand
// and installs the tenant there. MIG segments are tried first across
// the whole fleet (shares of existing instances and new instances of
// the smallest covering profile); only when no profile can host the
// demand anywhere does the packer fall back to a whole-GPU MPS share.
// Returns ErrUnplaceable when neither path has room, ErrDuplicateTenant
// when the tenant is already placed.
func (c *Cluster) Place(d Demand) (Placement, error) {
	if err := d.validate(); err != nil {
		return Placement{}, err
	}
	if _, ok := c.byTenant[d.Tenant]; ok {
		return Placement{}, fmt.Errorf("%w: %q", ErrDuplicateTenant, d.Tenant)
	}
	best, ok := c.bestCandidate(d)
	if !ok {
		if c.obsC != nil {
			c.cRejected.Inc()
			c.event("reject", obs.String("tenant", d.Tenant), obs.Int("sms", d.SMs))
		}
		return Placement{}, fmt.Errorf("%w: tenant %q (%d SMs, %d bytes) on %d GPUs",
			ErrUnplaceable, d.Tenant, d.SMs, d.MemBytes, len(c.gpus))
	}
	pl := c.apply(d, &best)
	if c.obsC != nil {
		c.cPlaced.Inc()
		c.event("place", obs.String("tenant", d.Tenant),
			obs.String("gpu", pl.Segment.GPU),
			obs.String("kind", pl.Segment.Kind.String()),
			obs.String("profile", pl.Segment.Profile),
			obs.Int("percent", pl.Segment.Percent))
		c.updateGauges()
	}
	return pl, nil
}

// bestCandidate runs the greedy search: the MIG candidate set first,
// the whole-GPU MPS set only when that is empty.
func (c *Cluster) bestCandidate(d Demand) (candidate, bool) {
	var p picker
	for k := range c.classes {
		c.classes[k].prepare(d)
	}
	for _, g := range c.gpus {
		k := &c.classes[g.class]
		if !k.twinProbed(g) {
			migCandidates(g, k, d, &p)
		}
	}
	if p.found {
		return p.best, true
	}
	for k := range c.classes {
		c.classes[k].probed = false
	}
	for _, g := range c.gpus {
		k := &c.classes[g.class]
		if !k.twinProbed(g) {
			mpsCandidate(g, k, d, &p)
		}
	}
	return p.best, p.found
}

// twinProbed reports whether g is empty and this pass already probed an
// earlier empty GPU of g's class k, marking the class otherwise. Such a
// GPU's candidates are the earlier one's with every key of better tied
// except the inventory index, so none of them can win.
func (k *specClass) twinProbed(g *gpuState) bool {
	if g.mode != modeEmpty {
		return false
	}
	if k.probed {
		return true
	}
	k.probed = true
	return false
}

// migCandidates offers every feasible MIG segment on one GPU of class
// k to p: shares of existing instances and new instances of the
// smallest covering profile at every free valid start. Each
// candidate's fragmentation delta is the tentative share's score
// against the GPU's cached one.
func migCandidates(g *gpuState, k *specClass, d Demand, p *picker) {
	if k.lat == nil || g.mode == modeMPS {
		return
	}
	// Shares of existing instances.
	for _, in := range g.insts {
		gr := &k.grants[in.pi]
		if !gr.ok || gr.pct > 100-in.pct || d.MemBytes > in.prof.MemBytes-in.mem {
			continue
		}
		p.consider(&candidate{
			g: g, kind: SegMIG, inst: in, prof: in.prof, pi: in.pi, start: in.start,
			pct: gr.pct, sms: gr.sms,
			delta:    migFrag(g, k, &tentative{inst: in, pct: gr.pct, mem: d.MemBytes}) - g.frag,
			waste:    gr.sms - d.SMs,
			wasEmpty: g.mode == modeEmpty,
		})
	}
	// New instance of the smallest covering profile.
	if k.cover < 0 {
		return
	}
	prof := &k.profiles[k.cover]
	if g.memSlices+prof.MemSlices > k.spec.MemSlices {
		return
	}
	gr := &k.grants[k.cover]
	for _, m := range k.lat.Moves(k.cover) {
		if g.occupied&m.Span != 0 {
			continue
		}
		p.consider(&candidate{
			g: g, kind: SegMIG, prof: prof, pi: k.cover, start: m.Start,
			pct: gr.pct, sms: gr.sms,
			delta:    migFrag(g, k, &tentative{prof: prof, span: m.Span, pct: gr.pct, mem: d.MemBytes}) - g.frag,
			waste:    gr.sms - d.SMs,
			memWaste: prof.MemBytes - d.MemBytes,
			wasEmpty: g.mode == modeEmpty,
		})
	}
}

// mpsCandidate offers the whole-GPU MPS fallback segment on one GPU of
// class k to p, when it has percentage and memory room.
func mpsCandidate(g *gpuState, k *specClass, d Demand, p *picker) {
	gr := &k.mps
	if g.mode == modeMIG || !gr.ok {
		return
	}
	if gr.pct > 100-g.mps.pct || d.MemBytes > k.spec.MemBytes-g.mps.mem {
		return
	}
	p.consider(&candidate{
		g: g, kind: SegMPS,
		pct: gr.pct, sms: gr.sms,
		delta:    mpsFrag(&k.spec, g.mps.pct+gr.pct, g.mps.mem+d.MemBytes) - g.frag,
		waste:    gr.sms - d.SMs,
		wasEmpty: g.mode == modeEmpty,
	})
}

// apply installs the chosen candidate and records the placement.
func (c *Cluster) apply(d Demand, cand *candidate) Placement {
	g := cand.g
	seg := Segment{
		GPU:      g.gpu.ID,
		Kind:     cand.kind,
		Percent:  cand.pct,
		SMs:      cand.sms,
		MemBytes: d.MemBytes,
	}
	sh := &share{tenant: d.Tenant, pct: cand.pct, sms: cand.sms, mem: d.MemBytes}
	switch cand.kind {
	case SegMIG:
		seg.Profile = cand.prof.Name
		seg.Start = cand.start
		c.setMode(g, modeMIG)
		if cand.inst != nil {
			cand.inst.add(sh)
		} else {
			// Instances never overlap, so starts are distinct and the
			// sorted position is unique.
			i := 0
			for i < len(g.insts) && g.insts[i].start < cand.start {
				i++
			}
			in := &instance{prof: cand.prof, pi: cand.pi, start: cand.start}
			in.add(sh)
			g.insertInstance(i, in)
		}
	case SegMPS:
		c.setMode(g, modeMPS)
		g.mps.add(sh)
	}
	c.rescore(g)
	pl := &Placement{Demand: d, Segment: seg}
	c.byTenant[d.Tenant] = pl
	c.order = append(c.order, d.Tenant)
	return *pl
}

// rescore refreshes g's cached fragmentation after a mutation.
func (c *Cluster) rescore(g *gpuState) {
	g.frag = gpuFrag(g, &c.classes[g.class])
}

// Evict removes a tenant, destroying its instance when it held the last
// share and returning the GPU to the empty mode when nothing remains.
func (c *Cluster) Evict(tenant string) error {
	pl, ok := c.byTenant[tenant]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	g := c.gpus[c.index[pl.Segment.GPU]]
	switch pl.Segment.Kind {
	case SegMIG:
		for i, in := range g.insts {
			if in.start != pl.Segment.Start {
				continue
			}
			in.drop(in.find(tenant))
			if len(in.shares) == 0 {
				g.removeInstance(i)
			}
			break
		}
		if len(g.insts) == 0 {
			c.setMode(g, modeEmpty)
		}
	case SegMPS:
		g.mps.drop(g.mps.find(tenant))
		if len(g.mps.shares) == 0 {
			c.setMode(g, modeEmpty)
		}
	}
	c.rescore(g)
	delete(c.byTenant, tenant)
	for i, t := range c.order {
		if t == tenant {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	if c.obsC != nil {
		c.cEvicted.Inc()
		c.event("evict", obs.String("tenant", tenant), obs.String("gpu", pl.Segment.GPU))
		c.updateGauges()
	}
	return nil
}

// RebalanceReport compares the churned incremental state with a
// from-scratch solve of the surviving tenants.
type RebalanceReport struct {
	// Equal is true when every surviving tenant occupies exactly the
	// segment a from-scratch solve would give it.
	Equal bool
	// Before and Scratch are the fleet fragmentation of the incremental
	// state and of the from-scratch solve; Gap = Before − Scratch is
	// positive when churn left the fleet more fragmented than necessary.
	Before, Scratch, Gap float64
	// ScratchInfeasible marks the greedy-order corner where the
	// from-scratch solve cannot place every survivor; the incremental
	// state is kept.
	ScratchInfeasible bool
	// Applied is true when Rebalance adopted the scratch solution;
	// Moved counts the tenants whose segment changed.
	Applied bool
	Moved   int
}

// FragGapBound bounds how much worse (in fleet-fragmentation terms) the
// incremental churned state may be than a from-scratch solve of the
// same survivors — the packer's churn-consistency invariant, asserted
// by the property suite. Fragmentation is a [0,1] per-GPU mean, so the
// bound says churn never strands more than half the fleet's resources
// beyond what the demand set itself forces.
const FragGapBound = 0.5

// Drift computes the rebalance comparison without applying anything.
func (c *Cluster) Drift() RebalanceReport {
	rep, _ := c.drift()
	return rep
}

// drift is Drift plus the scratch cluster it solved (nil when
// infeasible), which Rebalance adopts instead of solving again.
func (c *Cluster) drift() (RebalanceReport, *Cluster) {
	rep := RebalanceReport{Before: c.fleetFrag()}
	scratch, err := c.scratchSolve()
	if err != nil {
		rep.ScratchInfeasible = true
		return rep, nil
	}
	rep.Scratch = scratch.fleetFrag()
	rep.Gap = rep.Before - rep.Scratch
	rep.Equal = placementsEqual(c, scratch)
	return rep, scratch
}

// Rebalance adopts the from-scratch solve when it is strictly less
// fragmented than the churned state; otherwise the incremental state
// stands. Either way the report carries the comparison.
func (c *Cluster) Rebalance() RebalanceReport {
	rep, scratch := c.drift()
	c.cRebalances.Inc()
	if rep.ScratchInfeasible || rep.Equal || rep.Gap <= fragEps {
		if c.obsC != nil {
			c.event("rebalance", obs.String("applied", "false"), obs.Float("gap", rep.Gap))
		}
		return rep
	}
	for _, t := range c.order {
		if c.byTenant[t].Segment != scratch.byTenant[t].Segment {
			rep.Moved++
		}
	}
	// The scratch GPUs carry their indices, running sums and cached
	// fragmentation; only the mode counts are the cluster's own.
	c.gpus = scratch.gpus
	c.modes = c.countModes()
	for t, pl := range scratch.byTenant {
		*c.byTenant[t] = *pl
	}
	rep.Applied = true
	if c.obsC != nil {
		c.cMoved.Add(float64(rep.Moved))
		c.event("rebalance", obs.String("applied", "true"),
			obs.Float("gap", rep.Gap), obs.Int("moved", rep.Moved))
		c.updateGauges()
	}
	return rep
}

// scratchSolve replays the surviving demands, in arrival order, onto a
// fresh observation-free cluster over the same inventory.
func (c *Cluster) scratchSolve() (*Cluster, error) {
	fresh := c.fresh(len(c.order))
	for _, t := range c.order {
		if _, err := fresh.Place(c.byTenant[t].Demand); err != nil {
			return nil, err
		}
	}
	return fresh, nil
}

func placementsEqual(a, b *Cluster) bool {
	if len(a.order) != len(b.order) {
		return false
	}
	for _, t := range a.order {
		pb, ok := b.byTenant[t]
		if !ok || a.byTenant[t].Segment != pb.Segment {
			return false
		}
	}
	return true
}

// fragEps guards float comparisons on fragmentation values.
const fragEps = 1e-9
