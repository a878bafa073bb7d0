package simgpu

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/devent"
)

// BenchmarkMaxMinFair measures the allocator on a contended set.
func BenchmarkMaxMinFair(b *testing.B) {
	demands := make([]float64, 32)
	for i := range demands {
		demands[i] = float64(i%7) * 13
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxMinFair(100, demands)
	}
}

// BenchmarkSpatialContention measures the processor-sharing engine
// under heavy churn: 8 tenants × many kernels with constant
// re-evaluation.
func BenchmarkSpatialContention(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := devent.NewEnv()
		dev, err := NewDevice(env, "gpu0", testSpecBench())
		if err != nil {
			b.Fatal(err)
		}
		dev.SetPolicy(PolicySpatial)
		for t := 0; t < 8; t++ {
			env.Spawn("tenant", func(p *devent.Proc) {
				ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
				for k := 0; k < 50; k++ {
					if _, err := ctx.Run(p, Kernel{FLOPs: 25, MaxSMs: 30}); err != nil {
						env.Fail(err)
						return
					}
				}
			})
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimeshareChurn measures the round-robin path.
func BenchmarkTimeshareChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := devent.NewEnv()
		dev, _ := NewDevice(env, "gpu0", testSpecBench())
		for t := 0; t < 4; t++ {
			env.Spawn("tenant", func(p *devent.Proc) {
				ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
				for k := 0; k < 100; k++ {
					ctx.Run(p, Kernel{FLOPs: 10})
				}
			})
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVGPURotation measures the quantum-timer path: four VMs
// each keep a kernel queued, so every 50 ms quantum expiry rotates the
// active group and re-evaluates the domain (~1600 rotations per op).
func BenchmarkVGPURotation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := devent.NewEnv()
		dev, err := NewDevice(env, "gpu0", testSpecBench())
		if err != nil {
			b.Fatal(err)
		}
		dev.SetPolicy(PolicyVGPU)
		dev.SetVGPUQuantum(50 * time.Millisecond)
		for vm := 0; vm < 4; vm++ {
			group := fmt.Sprintf("vm%d", vm)
			env.Spawn("tenant", func(p *devent.Proc) {
				ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true, Group: group})
				for k := 0; k < 20; k++ {
					if _, err := ctx.Run(p, Kernel{FLOPs: 100}); err != nil {
						env.Fail(err)
						return
					}
				}
			})
		}
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func testSpecBench() DeviceSpec {
	return DeviceSpec{
		Name: "bench", SMs: 100, MemBytes: 1 << 40, FP32FLOPS: 100,
		MemBW: 100, PCIeBW: 100, ContextSwitch: time.Microsecond,
	}
}
