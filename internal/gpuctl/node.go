package gpuctl

import (
	"errors"
	"fmt"

	"repro/internal/devent"
	"repro/internal/simgpu"
)

// Node is one compute node's accelerator inventory: the devices, their
// MPS daemons, and the client-process bring-up path that turns an
// environment (CUDA_VISIBLE_DEVICES + MPS percentage) into a live GPU
// context.
type Node struct {
	env     *devent.Env
	devices []*simgpu.Device
	mps     map[*simgpu.Device]*MPSDaemon
}

// NewNode creates a node owning the given devices.
func NewNode(env *devent.Env, devices ...*simgpu.Device) *Node {
	return &Node{env: env, devices: devices, mps: make(map[*simgpu.Device]*MPSDaemon)}
}

// Env returns the simulation environment.
func (n *Node) Env() *devent.Env { return n.env }

// Devices returns the node's devices in index order.
func (n *Node) Devices() []*simgpu.Device {
	return append([]*simgpu.Device(nil), n.devices...)
}

// Device returns device i, or nil when out of range.
func (n *Node) Device(i int) *simgpu.Device {
	if i < 0 || i >= len(n.devices) {
		return nil
	}
	return n.devices[i]
}

// StartMPS starts the MPS control daemon on device i (idempotent).
func (n *Node) StartMPS(p *devent.Proc, i int) (*MPSDaemon, error) {
	dev := n.Device(i)
	if dev == nil {
		return nil, fmt.Errorf("%w: index %d", ErrNoDevice, i)
	}
	if d, ok := n.mps[dev]; ok {
		return d, nil
	}
	d, err := StartMPS(p, dev)
	if err != nil {
		return nil, err
	}
	n.mps[dev] = d
	return d, nil
}

// MPS returns the daemon for device i (nil if never started).
func (n *Node) MPS(i int) *MPSDaemon {
	dev := n.Device(i)
	if dev == nil {
		return nil
	}
	return n.mps[dev]
}

// Target is anything a context can be created on: a whole device or a
// MIG instance.
type Target interface {
	// NewContext creates a client context, paying initialization cost.
	NewContext(p *devent.Proc, opts simgpu.ContextOpts) (*simgpu.Context, error)
}

// Resolve maps one accelerator reference to its target. MIG UUIDs are
// searched across all devices; plain indices and GPU UUIDs resolve to
// whole devices.
func (n *Node) Resolve(ref Ref) (Target, *simgpu.Device, error) {
	switch ref.Kind {
	case RefIndex:
		dev := n.Device(ref.Index)
		if dev == nil {
			return nil, nil, fmt.Errorf("%w: index %d", ErrNoDevice, ref.Index)
		}
		return dev, dev, nil
	case RefGPUUUID:
		for _, dev := range n.devices {
			if "GPU-"+dev.Name() == ref.UUID {
				return dev, dev, nil
			}
		}
		return nil, nil, fmt.Errorf("%w: %s", ErrNoDevice, ref.UUID)
	case RefMIGUUID:
		for _, dev := range n.devices {
			if in := dev.InstanceByUUID(ref.UUID); in != nil {
				return in, dev, nil
			}
		}
		return nil, nil, fmt.Errorf("%w: %s", ErrNoDevice, ref.UUID)
	}
	return nil, nil, errors.New("gpuctl: unknown reference kind")
}

// OpenContext performs client-process GPU bring-up from an
// environment, exactly as the CUDA runtime would inside a freshly
// started worker: take the first entry of CUDA_VISIBLE_DEVICES,
// resolve it (device or MIG instance), read the MPS percentage from
// the environment (only when a daemon runs on a whole device), and
// create the context, paying initialization time.
func (n *Node) OpenContext(p *devent.Proc, name string, env map[string]string) (*simgpu.Context, error) {
	refs := ParseVisibleDevices(env[EnvVisibleDevices])
	if len(refs) == 0 {
		return nil, ErrNoDevice
	}
	target, dev, err := n.Resolve(refs[0])
	if err != nil {
		return nil, err
	}
	opts := simgpu.ContextOpts{Name: name}
	if _, isWholeDevice := target.(*simgpu.Device); isWholeDevice {
		if n.mps[dev] != nil {
			opts.SMPercent = PercentFromEnv(env)
		}
		// Without MPS the percentage env var is inert, as on real
		// hardware: time-sharing ignores it.
	}
	return target.NewContext(p, opts)
}
