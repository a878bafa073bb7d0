// Package fleet places N tenant demands onto M heterogeneous GPUs —
// the cluster layer above simgpu.Device that the ROADMAP's first
// fleet-scale item calls for.
//
// The model follows ParvaGPU's combined MIG+MPS "segments": every GPU
// is exclusively in one sharing mode at a time (as on real hardware),
// either carved into MIG instances or running whole-GPU MPS. A tenant's
// segment is then one of
//
//   - an MPS percentage share *inside* a MIG instance (MPS is available
//     within an instance on real A100s), so small tenants can co-occupy
//     one slice; a dedicated instance is simply a share whose
//     percentage grant covers the whole instance; or
//   - a percentage share of a whole GPU under plain MPS — the fallback
//     for demands no MIG profile covers (more SMs than the 7-slice
//     lattice exposes, more memory than the largest profile grants) or
//     when every lattice is full. Batch (from-scratch) solves apportion
//     these shares with rightsize.PackMPS's largest-remainder method;
//     incremental placements take the minimal granting percentage.
//
// The packer is greedy and fragmentation-aware: each demand goes to the
// feasible segment whose placement increases its GPU's fragmentation
// the least (see Fragmentation for the metric). Churn is incremental —
// arrivals and departures mutate the cluster in place — and Rebalance
// compares the churned state against a from-scratch solve of the
// surviving tenants, adopting the scratch solution when it is strictly
// less fragmented and reporting the gap either way.
//
// Everything is deterministic: identical inventories and identical
// operation sequences yield byte-identical placements, which the
// property suite in fleet_test.go and the FuzzPlace target check
// against the package's own Validate invariants.
package fleet

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/simgpu"
)

// Typed errors. Callers branch on these with errors.Is.
var (
	// ErrUnplaceable is returned when no GPU in the inventory has a
	// feasible segment for the demand.
	ErrUnplaceable = errors.New("fleet: demand cannot be placed")
	// ErrDuplicateTenant is returned when a tenant of the same name is
	// already placed.
	ErrDuplicateTenant = errors.New("fleet: tenant already placed")
	// ErrUnknownTenant is returned by Evict for tenants that are not
	// placed.
	ErrUnknownTenant = errors.New("fleet: unknown tenant")
	// ErrBadDemand is returned for malformed demands (empty tenant name,
	// non-positive SMs, negative memory).
	ErrBadDemand = errors.New("fleet: invalid demand")
)

// GPU is one inventory entry: a stable identifier plus the hardware
// spec. IDs key segments, so they must be unique within an inventory.
type GPU struct {
	ID   string
	Spec simgpu.DeviceSpec
}

// Inventory is the fleet's hardware, in a fixed order that placement
// tie-breaks respect (lower index wins).
type Inventory []GPU

// NewInventory builds an inventory with generated gpuN IDs, one per
// spec, in order.
func NewInventory(specs ...simgpu.DeviceSpec) Inventory {
	inv := make(Inventory, len(specs))
	for i, s := range specs {
		inv[i] = GPU{ID: fmt.Sprintf("gpu%d", i), Spec: s}
	}
	return inv
}

// Validate checks the inventory is non-empty with unique IDs and
// internally consistent specs.
func (inv Inventory) Validate() error {
	if len(inv) == 0 {
		return errors.New("fleet: empty inventory")
	}
	seen := make(map[string]bool, len(inv))
	for i, g := range inv {
		if g.ID == "" {
			return fmt.Errorf("fleet: inventory[%d] has no ID", i)
		}
		if seen[g.ID] {
			return fmt.Errorf("fleet: duplicate GPU ID %q", g.ID)
		}
		seen[g.ID] = true
		if err := g.Spec.Validate(); err != nil {
			return fmt.Errorf("fleet: inventory[%d] (%s): %w", i, g.ID, err)
		}
	}
	return nil
}

// Demand is one tenant's right-sized requirement: the SMs at its
// latency knee (rightsize.Recommend) plus its memory footprint.
type Demand struct {
	Tenant   string
	SMs      int
	MemBytes int64
}

func (d Demand) validate() error {
	switch {
	case d.Tenant == "":
		return fmt.Errorf("%w: empty tenant name", ErrBadDemand)
	case d.SMs <= 0:
		return fmt.Errorf("%w: tenant %q wants %d SMs", ErrBadDemand, d.Tenant, d.SMs)
	case d.MemBytes < 0:
		return fmt.Errorf("%w: tenant %q wants negative memory", ErrBadDemand, d.Tenant)
	}
	return nil
}

// SegmentKind distinguishes the two segment shapes.
type SegmentKind uint8

const (
	// SegMIG is an MPS share inside a MIG instance (Percent of the
	// instance's SMs; 100 = the tenant owns the instance).
	SegMIG SegmentKind = iota
	// SegMPS is a percentage share of a whole GPU under plain MPS.
	SegMPS
)

func (k SegmentKind) String() string {
	if k == SegMIG {
		return "mig"
	}
	return "mps"
}

// Segment is the resource grant backing one placement.
type Segment struct {
	// GPU is the inventory ID of the device holding the segment.
	GPU string
	// Kind says whether the segment lives in a MIG instance or on a
	// whole-GPU MPS domain.
	Kind SegmentKind
	// Profile and Start identify the MIG instance (SegMIG only): the
	// profile name and the first compute slice it occupies.
	Profile string
	Start   int
	// Percent is the MPS share of the segment's domain — the instance
	// for SegMIG, the whole device for SegMPS.
	Percent int
	// SMs is the compute grant: ceil(Percent · domainSMs / 100). Always
	// at least the demand's SMs (the demand-met invariant).
	SMs int
	// MemBytes is the memory reservation. Shares reserve exactly the
	// demand (MPS has no memory isolation; capacity is still physical).
	MemBytes int64
}

// Placement pairs a demand with the segment granted to it.
type Placement struct {
	Demand  Demand
	Segment Segment
}

// Config assembles a Cluster.
type Config struct {
	Inventory Inventory
	// Obs, when set, registers fleet metrics (placements, rejections,
	// evictions, fragmentation, per-mode GPU counts) and emits a span
	// per mutating operation on the "fleet" track. Nil keeps the
	// cluster observation-free.
	Obs *obs.Collector
}

// gpuMode is a device's current sharing mode. A GPU leaves modeEmpty on
// its first placement and returns to it when its last tenant departs.
type gpuMode uint8

const (
	modeEmpty gpuMode = iota
	modeMIG
	modeMPS
)

func (m gpuMode) String() string {
	switch m {
	case modeMIG:
		return "mig"
	case modeMPS:
		return "mps"
	}
	return "empty"
}

// share is one tenant's MPS percentage inside a domain (a MIG instance
// or a whole GPU).
type share struct {
	tenant string
	pct    int
	sms    int
	mem    int64
}

// domain is one MPS domain's shares with their running sums: the
// percentage and the memory they take. add and drop are the only
// writers, and Validate re-sums the list against them.
type domain struct {
	shares []*share
	pct    int
	mem    int64
}

func (d *domain) add(sh *share) {
	d.shares = append(d.shares, sh)
	d.pct += sh.pct
	d.mem += sh.mem
}

// drop removes the i'th share.
func (d *domain) drop(i int) {
	sh := d.shares[i]
	d.shares = append(d.shares[:i], d.shares[i+1:]...)
	d.pct -= sh.pct
	d.mem -= sh.mem
}

// find returns the index of the tenant's share, or -1.
func (d *domain) find(tenant string) int {
	for i, sh := range d.shares {
		if sh.tenant == tenant {
			return i
		}
	}
	return -1
}

// instance is one placed MIG instance and the shares inside it. prof
// points into the GPU's class profile table at index pi.
type instance struct {
	prof  *simgpu.MIGProfile
	pi    int
	start int
	domain
}

func (in *instance) sms(spec *simgpu.DeviceSpec) int {
	return in.prof.Slices * spec.SMsPerSlice
}

func (in *instance) span() simgpu.SliceMask { return simgpu.SliceSpan(in.start, in.prof.Slices) }

// gpuState is one device's occupancy.
type gpuState struct {
	idx int
	gpu GPU
	// class numbers the device's spec among the inventory's distinct
	// specs: GPUs of one class share a profile table and lattice, and
	// have identical candidates while empty.
	class int
	mode  gpuMode
	insts []*instance // modeMIG, kept sorted by start
	mps   domain      // modeMPS whole-GPU shares
	// occupied and memSlices are the running compute-slice bitmap and
	// memory-slice total of insts; insertInstance and removeInstance
	// are their only writers.
	occupied  simgpu.SliceMask
	memSlices int
	// frag caches gpuFrag(g); every mutation recomputes it, and Validate
	// checks it bit for bit.
	frag float64
}

// insertInstance puts in at position i of the instance list and claims
// its slices.
func (g *gpuState) insertInstance(i int, in *instance) {
	g.insts = slices.Insert(g.insts, i, in)
	g.occupied |= in.span()
	g.memSlices += in.prof.MemSlices
}

// removeInstance destroys the i'th instance and frees its slices.
func (g *gpuState) removeInstance(i int) {
	in := g.insts[i]
	g.insts = append(g.insts[:i], g.insts[i+1:]...)
	g.occupied &^= in.span()
	g.memSlices -= in.prof.MemSlices
}

// specClass is one distinct spec of the inventory: its profile table
// and lattice, shared by every GPU of the class, plus what bestCandidate
// computes once per Place for the class.
type specClass struct {
	spec     simgpu.DeviceSpec
	profiles []simgpu.MIGProfile // MIGProfilesFor(spec), small→large
	lat      *simgpu.MIGLattice  // nil without MIG

	// Per-Place scratch. probed is set once an empty GPU of the class
	// has been probed in the current pass. cover indexes the smallest
	// profile covering the demand (-1: none); grants[i] is the demand's
	// share of an instance of profiles[i]; mps is its whole-GPU share.
	probed bool
	cover  int
	grants []grant
	mps    grant
}

// grant is a demand's minimal MPS share of one domain size.
type grant struct {
	ok  bool // the domain has at least the demanded SMs
	pct int
	sms int
}

func grantOf(domSMs int, d Demand) grant {
	pct := simgpu.MinPercent(domSMs, d.SMs)
	return grant{ok: d.SMs <= domSMs, pct: pct, sms: simgpu.PercentSMs(domSMs, pct)}
}

// prepare fills the class's per-Place scratch for demand d.
func (k *specClass) prepare(d Demand) {
	k.probed = false
	k.cover = simgpu.CoveringProfile(&k.spec, k.profiles, d.SMs, d.MemBytes)
	for i := range k.profiles {
		k.grants[i] = grantOf(k.profiles[i].Slices*k.spec.SMsPerSlice, d)
	}
	k.mps = grantOf(k.spec.SMs, d)
	k.mps.ok = k.mps.ok && d.MemBytes <= k.spec.MemBytes
}

// Cluster is the fleet's placement state. Not safe for concurrent use:
// like every simulated subsystem here it lives on one Env's virtual
// clock.
type Cluster struct {
	inv      Inventory
	gpus     []*gpuState
	byTenant map[string]*Placement
	// order is the arrival order of live tenants — the demand sequence
	// a from-scratch solve replays.
	order []string
	// index maps a GPU ID to its inventory position; scratch clusters
	// share it.
	index   map[string]int
	classes []specClass
	// modes counts the GPUs in each mode; setMode is its only writer
	// until Rebalance adopts a scratch solve and recounts.
	modes [3]int

	obsC *obs.Collector
	// metrics (nil without a collector)
	cPlaced, cRejected, cEvicted, cRebalances, cMoved *obs.Counter
	gTenants, gFrag, gMIG, gMPS, gEmpty               *obs.Gauge
}

// New builds an empty cluster over the inventory.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Inventory.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		inv:      cfg.Inventory,
		byTenant: make(map[string]*Placement),
		index:    make(map[string]int, len(cfg.Inventory)),
		obsC:     cfg.Obs,
	}
	classOf := make(map[simgpu.DeviceSpec]int)
	class := make([]int, len(cfg.Inventory))
	for i, g := range cfg.Inventory {
		k, ok := classOf[g.Spec]
		if !ok {
			k = len(c.classes)
			classOf[g.Spec] = k
			cls := specClass{spec: g.Spec, profiles: simgpu.MIGProfilesFor(g.Spec)}
			if cls.profiles != nil {
				cls.lat = simgpu.MIGLatticeFor(cls.spec)
			}
			c.classes = append(c.classes, cls)
		}
		class[i] = k
		c.index[g.ID] = i
	}
	c.initGPUs(class)
	if cfg.Obs != nil {
		m := cfg.Obs.Metrics()
		c.cPlaced = m.Counter("fleet_place_total", obs.L("status", "placed"))
		c.cRejected = m.Counter("fleet_place_total", obs.L("status", "rejected"))
		c.cEvicted = m.Counter("fleet_evict_total")
		c.cRebalances = m.Counter("fleet_rebalance_total")
		c.cMoved = m.Counter("fleet_rebalance_moved_total")
		c.gTenants = m.Gauge("fleet_tenants")
		c.gFrag = m.Gauge("fleet_fragmentation")
		c.gMIG = m.Gauge("fleet_gpus", obs.L("mode", "mig"))
		c.gMPS = m.Gauge("fleet_gpus", obs.L("mode", "mps"))
		c.gEmpty = m.Gauge("fleet_gpus", obs.L("mode", "empty"))
		c.gEmpty.Set(float64(len(c.gpus)))
	}
	return c, nil
}

// initGPUs gives every class its per-Place scratch and builds one empty
// GPU per inventory entry, the i'th of spec class class[i].
func (c *Cluster) initGPUs(class []int) {
	for k := range c.classes {
		c.classes[k].grants = make([]grant, len(c.classes[k].profiles))
	}
	c.gpus = make([]*gpuState, len(c.inv))
	states := make([]gpuState, len(c.inv))
	for i, g := range c.inv {
		states[i] = gpuState{idx: i, gpu: g, class: class[i]}
		c.gpus[i] = &states[i]
	}
	c.modes[modeEmpty] = len(c.gpus)
}

// fresh returns an empty observation-free cluster over c's inventory,
// which New already validated, sharing c's ID index, spec classes and
// lattices. tenants sizes the placement map.
func (c *Cluster) fresh(tenants int) *Cluster {
	f := &Cluster{
		inv:      c.inv,
		byTenant: make(map[string]*Placement, tenants),
		index:    c.index,
		classes:  slices.Clone(c.classes),
	}
	class := make([]int, len(c.gpus))
	for i, g := range c.gpus {
		class[i] = g.class
	}
	f.initGPUs(class)
	return f
}

// setMode moves g to mode m, keeping the per-mode counts.
func (c *Cluster) setMode(g *gpuState, m gpuMode) {
	c.modes[g.mode]--
	c.modes[m]++
	g.mode = m
}

// countModes recounts the GPUs in each mode.
func (c *Cluster) countModes() [3]int {
	var n [3]int
	for _, g := range c.gpus {
		n[g.mode]++
	}
	return n
}

// Inventory returns the cluster's hardware list.
func (c *Cluster) Inventory() Inventory { return c.inv }

// Tenants returns the number of live placements.
func (c *Cluster) Tenants() int { return len(c.order) }

// Lookup returns the live placement for a tenant.
func (c *Cluster) Lookup(tenant string) (Placement, bool) {
	p, ok := c.byTenant[tenant]
	if !ok {
		return Placement{}, false
	}
	return *p, true
}

// Placements lists the live placements in tenant-arrival order.
func (c *Cluster) Placements() []Placement {
	out := make([]Placement, 0, len(c.order))
	for _, t := range c.order {
		out = append(out, *c.byTenant[t])
	}
	return out
}

// Demands lists the live demands in tenant-arrival order — the input a
// from-scratch solve replays.
func (c *Cluster) Demands() []Demand {
	out := make([]Demand, 0, len(c.order))
	for _, t := range c.order {
		out = append(out, c.byTenant[t].Demand)
	}
	return out
}

// updateGauges refreshes the fleet-level gauges after a mutation. Like
// event, it is called only on a cluster with a collector.
func (c *Cluster) updateGauges() {
	c.gTenants.Set(float64(len(c.order)))
	c.gFrag.Set(c.fleetFrag())
	c.gMIG.Set(float64(c.modes[modeMIG]))
	c.gMPS.Set(float64(c.modes[modeMPS]))
	c.gEmpty.Set(float64(c.modes[modeEmpty]))
}

// event records a zero-duration marker span for one mutating operation.
// Callers check for a collector first, so a cluster without one (every
// scratch solve) never builds the attributes.
func (c *Cluster) event(name string, attrs ...obs.Attr) {
	now := c.obsC.Now()
	c.obsC.AddSpan("fleet", name, "fleet", 0, now, now, attrs...)
}
