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

// migPlacements lists the allowed start slice per compute-slice count
// on A100-class 7-slice GPUs (mirrors nvidia-smi's placement table).
var migPlacements = map[int][]int{
	1: {0, 1, 2, 3, 4, 5, 6},
	2: {0, 2, 4},
	3: {0, 4},
	4: {0},
	7: {0},
}

// MIGStarts returns the allowed start slices for an instance of the
// given compute-slice count (nil when no placement row exists). The
// fleet packer enumerates these; Device.CreateInstance consumes the
// same table, so out-of-band placement decisions always match what the
// device will accept.
func MIGStarts(slices int) []int {
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

// CreateInstance places a new instance of the named profile at the
// first valid free position (nvidia-smi-style auto placement).
func (d *Device) CreateInstance(profileName string) (*Instance, error) {
	if !d.migEnabled {
		return nil, ErrMIGMode
	}
	prof, err := LookupProfile(d.spec, profileName)
	if err != nil {
		return nil, err
	}
	starts, ok := migPlacements[prof.Slices]
	if !ok {
		return nil, fmt.Errorf("%w: profile %s has no placement row", ErrPlacement, prof.Name)
	}
	occupied := make([]bool, d.spec.MIGSlices)
	memUsed := 0
	for _, in := range d.instances {
		for s := in.start; s < in.start+in.profile.Slices; s++ {
			occupied[s] = true
		}
		memUsed += in.profile.MemSlices
	}
	if memUsed+prof.MemSlices > d.spec.MemSlices {
		return nil, fmt.Errorf("%w: out of memory slices (%d used of %d)", ErrPlacement, memUsed, d.spec.MemSlices)
	}
	for _, start := range starts {
		if start+prof.Slices > d.spec.MIGSlices {
			continue
		}
		free := true
		for s := start; s < start+prof.Slices; s++ {
			if occupied[s] {
				free = false
				break
			}
		}
		if free {
			return d.placeInstance(prof, start), nil
		}
	}
	return nil, fmt.Errorf("%w: no free slice range for %s", ErrPlacement, prof.Name)
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
	in.dom.onDone = d.kernelDone
	if d.obsC != nil {
		in.dom.setCollector(d.obsC)
	}
	d.instances = append(d.instances, in)
	sort.Slice(d.instances, func(i, j int) bool { return d.instances[i].start < d.instances[j].start })
	return in
}

// DestroyInstance removes an instance; it must have no live contexts.
func (d *Device) DestroyInstance(in *Instance) error {
	if len(in.dom.ctxs) > 0 {
		return ErrBusy
	}
	for i, x := range d.instances {
		if x == in {
			d.instances = append(d.instances[:i], d.instances[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("simgpu: instance %s not on device %s", in.uuid, d.name)
}

// ConfigureMIG atomically replaces the instance layout with the named
// profiles. Per the paper (§6), this requires shutting down every
// application on the GPU first and costs a reset (1–2 s) on top of the
// clients' own restart costs. Profiles are placed in the given order.
func (d *Device) ConfigureMIG(p *devent.Proc, profileNames []string) ([]*Instance, error) {
	if !d.migEnabled {
		return nil, ErrMIGMode
	}
	for _, in := range d.instances {
		if len(in.dom.ctxs) > 0 {
			return nil, ErrBusy
		}
	}
	old := d.instances
	d.instances = nil
	created := make([]*Instance, 0, len(profileNames))
	for _, name := range profileNames {
		in, err := d.CreateInstance(name)
		if err != nil {
			d.instances = old // roll back
			return nil, err
		}
		created = append(created, in)
	}
	if p != nil {
		p.Sleep(d.spec.ResetTime)
	}
	return created, nil
}
