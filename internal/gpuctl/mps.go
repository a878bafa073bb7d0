package gpuctl

import (
	"time"

	"repro/internal/devent"
	"repro/internal/simgpu"
)

// MPSDaemon models nvidia-cuda-mps-control for one device. While the
// daemon runs, client kernels from different processes execute
// concurrently (spatial sharing); without it the device time-shares.
// The paper's executor must ensure the daemon is "launched in the
// compute node before any function with GPU code runs" (§4.1).
type MPSDaemon struct {
	dev *simgpu.Device
}

// StartMPS starts the control daemon on dev, switching it to spatial
// sharing. It fails with simgpu.ErrBusy if client contexts already
// exist (the daemon must precede its clients) and with ErrMIGMode if
// the device is in MIG mode (MPS-in-MIG is not modelled; the paper
// uses them as alternatives).
func StartMPS(p *devent.Proc, dev *simgpu.Device) (*MPSDaemon, error) {
	if dev.MIGEnabled() {
		return nil, simgpu.ErrMIGMode
	}
	if err := dev.SetPolicy(simgpu.PolicySpatial); err != nil {
		return nil, err
	}
	if p != nil {
		p.Sleep(100 * time.Millisecond) // daemon startup
	}
	return &MPSDaemon{dev: dev}, nil
}

// Device returns the device the daemon controls.
func (m *MPSDaemon) Device() *simgpu.Device { return m.dev }
