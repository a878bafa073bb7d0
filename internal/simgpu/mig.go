package simgpu

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/devent"
	"repro/internal/metrics"
)

// ErrPlacement is returned when a MIG instance cannot be placed
// (unknown profile, no free slice range, or invalid start position).
var ErrPlacement = errors.New("simgpu: no valid MIG placement")

// MIGProfile describes one MIG instance shape: g compute slices plus a
// whole number of memory slices. Bandwidth scales with memory slices,
// as on real hardware.
type MIGProfile struct {
	// Name is the nvidia-smi profile string, e.g. "3g.40gb".
	Name string
	// Slices is the number of compute slices (the "g" count).
	Slices int
	// MemSlices is the number of memory slices claimed (of
	// DeviceSpec.MemSlices total).
	MemSlices int
	// MemBytes is usable instance memory.
	MemBytes int64
}

// migPlacements lists the allowed start slices, indexed by compute-slice
// count, on A100-class 7-slice GPUs (mirrors nvidia-smi's placement
// table); a nil row means no placement exists.
var migPlacements = [...][]int{
	1: {0, 1, 2, 3, 4, 5, 6},
	2: {0, 2, 4},
	3: {0, 4},
	4: {0},
	7: {0},
}

// MIGStarts returns the allowed start slices for an instance of the
// given compute-slice count (nil when no placement row exists). Every
// MIGLattice is built from this table, so the fleet packer's and
// PackMIG's placement decisions always match what the device accepts.
func MIGStarts(slices int) []int {
	if slices < 0 || slices >= len(migPlacements) {
		return nil
	}
	return migPlacements[slices]
}

// MIGProfilesFor returns the profile table for a device spec (keyed on
// memory size: the 40 GB and 80 GB A100 tables from the paper's §4.2).
func MIGProfilesFor(spec DeviceSpec) []MIGProfile {
	if spec.MIGSlices == 0 {
		return nil
	}
	if spec.MemBytes >= 80*GB {
		return []MIGProfile{
			{Name: "1g.10gb", Slices: 1, MemSlices: 1, MemBytes: 10 * GB},
			{Name: "2g.20gb", Slices: 2, MemSlices: 2, MemBytes: 20 * GB},
			{Name: "3g.40gb", Slices: 3, MemSlices: 4, MemBytes: 40 * GB},
			{Name: "4g.40gb", Slices: 4, MemSlices: 4, MemBytes: 40 * GB},
			{Name: "7g.80gb", Slices: 7, MemSlices: 8, MemBytes: 80 * GB},
		}
	}
	return []MIGProfile{
		{Name: "1g.5gb", Slices: 1, MemSlices: 1, MemBytes: 5 * GB},
		{Name: "2g.10gb", Slices: 2, MemSlices: 2, MemBytes: 10 * GB},
		{Name: "3g.20gb", Slices: 3, MemSlices: 4, MemBytes: 20 * GB},
		{Name: "4g.20gb", Slices: 4, MemSlices: 4, MemBytes: 20 * GB},
		{Name: "7g.40gb", Slices: 7, MemSlices: 8, MemBytes: 40 * GB},
	}
}

// LookupProfile finds a profile by name for the spec.
func LookupProfile(spec DeviceSpec, name string) (MIGProfile, error) {
	for _, p := range MIGProfilesFor(spec) {
		if p.Name == name {
			return p, nil
		}
	}
	return MIGProfile{}, fmt.Errorf("simgpu: unknown MIG profile %q for %s", name, spec.Name)
}

// CoveringProfile returns the index of the smallest profile of the
// table (small → large) whose SMs (Slices·SMsPerSlice) and MemBytes
// cover a demand of sms SMs and memBytes bytes, or -1 when none does.
func CoveringProfile(spec *DeviceSpec, profiles []MIGProfile, sms int, memBytes int64) int {
	for i := range profiles {
		if p := &profiles[i]; p.Slices*spec.SMsPerSlice >= sms && p.MemBytes >= memBytes {
			return i
		}
	}
	return -1
}

// Instance is one MIG instance: an isolated compute domain plus an
// isolated memory pool.
type Instance struct {
	dev     *Device
	profile MIGProfile
	start   int
	uuid    string
	dom     *domain
	mem     *MemPool
}

// UUID returns the instance identifier usable in CUDA_VISIBLE_DEVICES.
func (in *Instance) UUID() string { return in.uuid }

// Profile returns the instance's MIG profile.
func (in *Instance) Profile() MIGProfile { return in.profile }

// SMs returns the instance's SM count.
func (in *Instance) SMs() int { return in.dom.sms }

// Mem returns the instance's private memory pool.
func (in *Instance) Mem() *MemPool { return in.mem }

// Contexts returns the number of live contexts on the instance.
func (in *Instance) Contexts() int { return len(in.dom.ctxs) }

// BusySeries returns the instance's busy-SM step series.
func (in *Instance) BusySeries() *metrics.StepSeries { return in.dom.busySeries() }

// Utilization returns the instance's mean busy fraction over [from,to].
func (in *Instance) Utilization(from, to time.Duration) float64 {
	return in.dom.utilization(from, to)
}

// NewContext creates a client context on this instance. The context's
// kernels run with compute and memory isolation from other instances.
func (in *Instance) NewContext(p *devent.Proc, opts ContextOpts) (*Context, error) {
	return in.dev.newContextOn(p, in.dom, in.mem, opts)
}

// EnableMIG puts the device in MIG mode. It requires no live contexts
// and costs a device reset.
func (d *Device) EnableMIG(p *devent.Proc) error {
	if d.migEnabled {
		return nil
	}
	if err := d.Reset(p); err != nil {
		return err
	}
	d.migEnabled = true
	return nil
}

func (d *Device) placeInstance(prof MIGProfile, start int) *Instance {
	d.nInst++
	uuid := fmt.Sprintf("MIG-%s-%d-%s", d.name, d.nInst, prof.Name)
	sms := prof.Slices * d.spec.SMsPerSlice
	bw := d.spec.MemBW * float64(prof.MemSlices) / float64(d.spec.MemSlices)
	in := &Instance{
		dev:     d,
		profile: prof,
		start:   start,
		uuid:    uuid,
		dom:     newDomain(d.env, uuid, sms, d.spec.PerSMFLOPS(), bw, d.spec.ContextSwitch),
		mem:     NewMemPool(uuid, prof.MemBytes),
	}
	// Within an instance, concurrent clients share spatially (MPS is
	// available inside MIG on real hardware; the paper runs one
	// process per instance, for which the policy is irrelevant).
	in.dom.policy = PolicySpatial
	if d.obsC != nil {
		in.dom.setCollector(d.obsC)
	}
	d.instances = append(d.instances, in)
	sort.Slice(d.instances, func(i, j int) bool { return d.instances[i].start < d.instances[j].start })
	return in
}

// ConfigureMIG atomically replaces the instance layout with the named
// profiles. Per the paper (§6), this requires shutting down every
// application on the GPU first and costs a reset (1–2 s) on top of the
// clients' own restart costs. Every start is found before any instance
// is created, by the lattice search: a layout that in-order first-fit
// places keeps first-fit's positions, and any other placeable layout
// places too. An unplaceable layout leaves the old one untouched.
func (d *Device) ConfigureMIG(p *devent.Proc, profileNames []string) ([]*Instance, error) {
	if !d.migEnabled {
		return nil, ErrMIGMode
	}
	for _, in := range d.instances {
		if len(in.dom.ctxs) > 0 {
			return nil, ErrBusy
		}
	}
	profs, starts, err := placeMIG(&d.spec, profileNames)
	if err != nil {
		return nil, err
	}
	d.instances = nil
	created := make([]*Instance, len(profs))
	for i, prof := range profs {
		created[i] = d.placeInstance(prof, starts[i])
	}
	if p != nil {
		p.Sleep(d.spec.ResetTime)
	}
	return created, nil
}
