package fleet

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/rightsize"
	"repro/internal/simgpu"
)

// pctGrant is the SM grant of an MPS percentage of a domain:
// ceil(pct·domSMs/100), the CUDA_MPS_ACTIVE_THREAD_PERCENTAGE
// semantics simgpu implements.
func pctGrant(domSMs, pct int) int {
	if pct >= 100 {
		return domSMs
	}
	return (pct*domSMs + 99) / 100
}

// candidate is one feasible segment for a demand, scored for the
// greedy choice.
type candidate struct {
	g     *gpuState
	kind  SegmentKind
	inst  *instance         // existing instance to share (nil → new instance or whole-GPU)
	prof  simgpu.MIGProfile // new-instance profile (SegMIG with inst == nil)
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
func (a candidate) better(b candidate) bool {
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
	pl := c.apply(d, best)
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
	var best candidate
	found := false
	consider := func(cand candidate) {
		if !found || cand.better(best) {
			best, found = cand, true
		}
	}
	clear(c.probed)
	for _, g := range c.gpus {
		if !c.twinProbed(g) {
			migCandidates(g, d, consider)
		}
	}
	if found {
		return best, true
	}
	clear(c.probed)
	for _, g := range c.gpus {
		if !c.twinProbed(g) {
			mpsCandidate(g, d, consider)
		}
	}
	return best, found
}

// twinProbed reports whether g is empty and this pass already probed an
// earlier empty GPU of the same spec, marking g's class otherwise. Such
// a GPU's candidates are the earlier one's with every key of better
// tied except the inventory index, so none of them can win.
func (c *Cluster) twinProbed(g *gpuState) bool {
	if g.mode != modeEmpty {
		return false
	}
	if c.probed[g.class] {
		return true
	}
	c.probed[g.class] = true
	return false
}

// migCandidates emits every feasible MIG segment on one GPU: shares of
// existing instances and new instances of the smallest covering
// profile at every free valid start. Each candidate's fragmentation
// delta is the tentative share's score against the GPU's cached one.
func migCandidates(g *gpuState, d Demand, consider func(candidate)) {
	spec := g.gpu.Spec
	if spec.MIGSlices == 0 || g.mode == modeMPS {
		return
	}
	// Shares of existing instances.
	for _, in := range g.insts {
		instSMs := in.sms(spec)
		if d.SMs > instSMs {
			continue
		}
		pct := rightsize.MinGrantingPercent(instSMs, d.SMs)
		if pct > 100-in.usedPct() {
			continue
		}
		if d.MemBytes > in.prof.MemBytes-in.usedMem() {
			continue
		}
		sms := pctGrant(instSMs, pct)
		consider(candidate{
			g: g, kind: SegMIG, inst: in, prof: in.prof, start: in.start,
			pct: pct, sms: sms,
			delta:    migFrag(g, tentative{inst: in, pct: pct, mem: d.MemBytes}) - g.frag,
			waste:    sms - d.SMs,
			wasEmpty: g.mode == modeEmpty,
		})
	}
	// New instance of the smallest covering profile.
	prof, ok := coveringProfile(spec, g.profiles, d)
	if !ok {
		return
	}
	occupied, memUsed := g.occupancy()
	if memUsed+prof.MemSlices > spec.MemSlices {
		return
	}
	instSMs := prof.Slices * spec.SMsPerSlice
	pct := rightsize.MinGrantingPercent(instSMs, d.SMs)
	sms := pctGrant(instSMs, pct)
	for _, start := range simgpu.MIGStarts(prof.Slices) {
		if start+prof.Slices > spec.MIGSlices || occupied&sliceSpan(start, prof.Slices) != 0 {
			continue
		}
		consider(candidate{
			g: g, kind: SegMIG, prof: prof, start: start,
			pct: pct, sms: sms,
			delta:    migFrag(g, tentative{prof: prof, start: start, pct: pct, mem: d.MemBytes}) - g.frag,
			waste:    sms - d.SMs,
			memWaste: prof.MemBytes - d.MemBytes,
			wasEmpty: g.mode == modeEmpty,
		})
	}
}

// mpsCandidate emits the whole-GPU MPS fallback segment on one GPU,
// when it has percentage and memory room.
func mpsCandidate(g *gpuState, d Demand, consider func(candidate)) {
	spec := g.gpu.Spec
	if g.mode == modeMIG {
		return
	}
	if d.SMs > spec.SMs || d.MemBytes > spec.MemBytes {
		return
	}
	pct := rightsize.MinGrantingPercent(spec.SMs, d.SMs)
	if pct > 100-g.usedPct() {
		return
	}
	if d.MemBytes > spec.MemBytes-g.usedMem() {
		return
	}
	sms := pctGrant(spec.SMs, pct)
	consider(candidate{
		g: g, kind: SegMPS,
		pct: pct, sms: sms,
		delta:    mpsFrag(spec, g.usedPct()+pct, g.usedMem()+d.MemBytes) - g.frag,
		waste:    sms - d.SMs,
		wasEmpty: g.mode == modeEmpty,
	})
}

// coveringProfile returns the smallest profile covering the demand's
// SMs and memory (profiles are ordered small → large).
func coveringProfile(spec simgpu.DeviceSpec, profiles []simgpu.MIGProfile, d Demand) (simgpu.MIGProfile, bool) {
	for _, p := range profiles {
		if p.Slices*spec.SMsPerSlice >= d.SMs && p.MemBytes >= d.MemBytes {
			return p, true
		}
	}
	return simgpu.MIGProfile{}, false
}

// apply installs the chosen candidate and records the placement.
func (c *Cluster) apply(d Demand, cand candidate) Placement {
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
		g.mode = modeMIG
		if cand.inst != nil {
			cand.inst.shares = append(cand.inst.shares, sh)
		} else {
			// Instances never overlap, so starts are distinct and the
			// sorted position is unique.
			i := 0
			for i < len(g.insts) && g.insts[i].start < cand.start {
				i++
			}
			g.insts = slices.Insert(g.insts, i, &instance{prof: cand.prof, start: cand.start, shares: []*share{sh}})
		}
	case SegMPS:
		g.mode = modeMPS
		g.shares = append(g.shares, sh)
	}
	g.frag = gpuFrag(g)
	pl := &Placement{Demand: d, Segment: seg}
	c.byTenant[d.Tenant] = pl
	c.order = append(c.order, d.Tenant)
	return *pl
}

// Evict removes a tenant, destroying its instance when it held the last
// share and returning the GPU to the empty mode when nothing remains.
func (c *Cluster) Evict(tenant string) error {
	pl, ok := c.byTenant[tenant]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	g := c.gpuByID(pl.Segment.GPU)
	switch pl.Segment.Kind {
	case SegMIG:
		for i, in := range g.insts {
			if in.start != pl.Segment.Start {
				continue
			}
			in.shares = removeShare(in.shares, tenant)
			if len(in.shares) == 0 {
				g.insts = append(g.insts[:i], g.insts[i+1:]...)
			}
			break
		}
		if len(g.insts) == 0 {
			g.mode = modeEmpty
		}
	case SegMPS:
		g.shares = removeShare(g.shares, tenant)
		if len(g.shares) == 0 {
			g.mode = modeEmpty
		}
	}
	g.frag = gpuFrag(g)
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

func removeShare(shares []*share, tenant string) []*share {
	for i, s := range shares {
		if s.tenant == tenant {
			return append(shares[:i], shares[i+1:]...)
		}
	}
	return shares
}

func (c *Cluster) gpuByID(id string) *gpuState {
	for _, g := range c.gpus {
		if g.gpu.ID == id {
			return g
		}
	}
	return nil
}

// Migrate evicts and re-places one tenant — the packer may choose a
// better segment now that the fleet has churned since its arrival. On
// failure the tenant is restored to some feasible segment (its old one
// was just freed, so one exists) and the placement error is returned.
func (c *Cluster) Migrate(tenant string) (Placement, error) {
	old, ok := c.byTenant[tenant]
	if !ok {
		return Placement{}, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	d := old.Demand
	if err := c.Evict(tenant); err != nil {
		return Placement{}, err
	}
	pl, err := c.Place(d)
	if err != nil {
		if _, rerr := c.Place(d); rerr != nil {
			return Placement{}, fmt.Errorf("fleet: migrate lost tenant %q: %v (restore: %w)", tenant, err, rerr)
		}
		return Placement{}, err
	}
	if c.cMigrated != nil {
		c.cMigrated.Inc()
	}
	return pl, nil
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
	// The scratch GPUs carry their indices and cached fragmentation.
	c.gpus = scratch.gpus
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
