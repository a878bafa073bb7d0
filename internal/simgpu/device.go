package simgpu

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/devent"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// ErrMIGMode is returned when an operation conflicts with the device's
// MIG mode (e.g. creating a plain context while MIG is enabled).
var ErrMIGMode = errors.New("simgpu: operation conflicts with MIG mode")

// ErrBusy is returned when a reconfiguration requires the device (or
// an instance) to be free of contexts first — the paper's "shut down
// all the applications" requirement.
var ErrBusy = errors.New("simgpu: device busy (destroy contexts first)")

// Device is one simulated GPU.
type Device struct {
	env        *devent.Env
	name       string
	spec       DeviceSpec
	root       *domain
	mem        *MemPool
	migEnabled bool
	instances  []*Instance
	nctx       int
	nInst      int
	obsC       *obs.Collector
}

// NewDevice creates a device with time-sharing policy (the GPU
// default when no MPS daemon runs).
func NewDevice(env *devent.Env, name string, spec DeviceSpec) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		env:  env,
		name: name,
		spec: spec,
		mem:  NewMemPool(name, spec.MemBytes),
	}
	d.root = newDomain(env, name, spec.SMs, spec.PerSMFLOPS(), spec.MemBW, spec.ContextSwitch)
	return d, nil
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Spec returns the hardware description.
func (d *Device) Spec() DeviceSpec { return d.spec }

// Mem returns the device-wide memory pool (invalid to allocate from
// while MIG is enabled; instances have their own pools).
func (d *Device) Mem() *MemPool { return d.mem }

// Env returns the simulation environment.
func (d *Device) Env() *devent.Env { return d.env }

// SetCollector attaches a collector to every compute domain (root and
// MIG instances, current and future): kernels become spans, and busy
// SMs, queue depth, and context switches become per-domain metrics.
func (d *Device) SetCollector(c *obs.Collector) {
	d.obsC = c
	d.root.setCollector(c)
	for _, in := range d.instances {
		in.dom.setCollector(c)
	}
}

// ContextSwitches returns the total scheduling context switches across
// the root domain and all MIG instances (time-share penalties plus
// vGPU quantum rotations).
func (d *Device) ContextSwitches() int {
	n := d.root.switches
	for _, in := range d.instances {
		n += in.dom.switches
	}
	return n
}

// SetPolicy switches the whole-device sharing policy. Enabling
// PolicySpatial corresponds to starting nvidia-cuda-mps-control;
// PolicyTimeShare is the default. Fails with ErrMIGMode while MIG is
// enabled (instances schedule independently) and with ErrBusy while
// contexts exist (MPS must start before client processes).
func (d *Device) SetPolicy(p Policy) error {
	if d.migEnabled {
		return ErrMIGMode
	}
	if len(d.root.ctxs) > 0 {
		return ErrBusy
	}
	d.root.policy = p
	return nil
}

// Policy returns the whole-device sharing policy.
func (d *Device) Policy() Policy { return d.root.policy }

// SetVGPUQuantum sets the vGPU time-slice length (PolicyVGPU only).
func (d *Device) SetVGPUQuantum(q time.Duration) {
	if q > 0 {
		d.root.quantum = q
	}
}

// NewContext creates a client context on the whole device, paying the
// context-initialization cost unless opts.SkipInit. Fails with
// ErrMIGMode when MIG is enabled — clients must then target instances.
func (d *Device) NewContext(p *devent.Proc, opts ContextOpts) (*Context, error) {
	if d.migEnabled {
		return nil, ErrMIGMode
	}
	return d.newContextOn(p, d.root, d.mem, opts)
}

func (d *Device) newContextOn(p *devent.Proc, dom *domain, mem *MemPool, opts ContextOpts) (*Context, error) {
	if opts.SMPercent < 0 || opts.SMPercent > 100 {
		return nil, fmt.Errorf("simgpu: SMPercent %d out of range", opts.SMPercent)
	}
	if !opts.SkipInit && p != nil {
		p.Sleep(d.spec.ContextInit)
	}
	d.nctx++
	name := opts.Name
	if name == "" {
		name = fmt.Sprintf("%s/ctx%d", dom.name, d.nctx)
	}
	if opts.Group == "" {
		// Under vGPU every ungrouped context is its own VM; the other
		// policies ignore groups.
		opts.Group = name
	}
	c := &Context{
		name:      name,
		dom:       dom,
		mem:       mem,
		devBW:     d.spec.MemBW,
		smPct:     opts.SMPercent,
		group:     opts.Group,
		createdAt: d.env.Now(),
	}
	dom.addContext(c)
	return c, nil
}

// Contexts returns the number of live contexts on the root domain.
func (d *Device) Contexts() int { return len(d.root.ctxs) }

// ContextNames lists every live context on the device — root domain
// first, then MIG instances in creation order — in creation order
// within each domain. The listing is deterministic, so a seeded fault
// injector picking a victim by index always picks the same one.
func (d *Device) ContextNames() []string {
	var names []string
	for _, c := range d.root.ctxs {
		names = append(names, c.name)
	}
	for _, in := range d.instances {
		for _, c := range in.dom.ctxs {
			names = append(names, c.name)
		}
	}
	return names
}

// InjectContextLoss destroys the named context as an uncorrectable
// ECC error would: its queued and running kernels fail with
// ErrContextLost and its memory is freed. It reports whether a live
// context with that name existed.
func (d *Device) InjectContextLoss(name string) bool {
	if c := d.findContext(name); c != nil {
		c.Fault(ErrContextLost)
		return true
	}
	return false
}

func (d *Device) findContext(name string) *Context {
	for _, c := range d.root.ctxs {
		if c.name == name {
			return c
		}
	}
	for _, in := range d.instances {
		for _, c := range in.dom.ctxs {
			if c.name == name {
				return c
			}
		}
	}
	return nil
}

// BusySeries returns the whole-device busy-SM step series (root
// domain; in MIG mode use per-instance series).
func (d *Device) BusySeries() *metrics.StepSeries { return d.root.busySeries() }

// Utilization returns mean busy-SM fraction over [from, to]. In MIG
// mode it aggregates instances weighted by their SM counts; slack SMs
// not covered by any instance count as idle.
func (d *Device) Utilization(from, to time.Duration) float64 {
	if !d.migEnabled {
		return d.root.utilization(from, to)
	}
	var busy float64
	for _, in := range d.instances {
		busy += in.dom.busy.Mean(from, to)
	}
	return busy / float64(d.spec.SMs)
}

// MIGEnabled reports whether the device is in MIG mode.
func (d *Device) MIGEnabled() bool { return d.migEnabled }

// InstanceByUUID finds an instance (nil if absent).
func (d *Device) InstanceByUUID(uuid string) *Instance {
	for _, in := range d.instances {
		if in.uuid == uuid {
			return in
		}
	}
	return nil
}

// Reset models a full GPU reset: fails with ErrBusy if any context
// exists, otherwise blocks the proc for the reset time.
func (d *Device) Reset(p *devent.Proc) error {
	if len(d.root.ctxs) > 0 {
		return ErrBusy
	}
	for _, in := range d.instances {
		if len(in.dom.ctxs) > 0 {
			return ErrBusy
		}
	}
	if p != nil {
		p.Sleep(d.spec.ResetTime)
	}
	return nil
}
