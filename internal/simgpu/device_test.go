package simgpu

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/devent"
)

// testSpec gives easy arithmetic: 100 SMs at 1 FLOP/s each, 100 B/s of
// memory bandwidth, and no fixed overheads.
func testSpec() DeviceSpec {
	return DeviceSpec{
		Name:      "test",
		SMs:       100,
		MemBytes:  1000,
		FP32FLOPS: 100,
		MemBW:     100,
		PCIeBW:    100,
	}
}

func near(t *testing.T, got, want time.Duration) {
	t.Helper()
	d := got - want
	if d < 0 {
		d = -d
	}
	if d > time.Microsecond {
		t.Fatalf("time = %v, want %v", got, want)
	}
}

func mustDevice(t *testing.T, env *devent.Env, spec DeviceSpec) *Device {
	t.Helper()
	d, err := NewDevice(env, "gpu0", spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func run(t *testing.T, env *devent.Env) {
	t.Helper()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleKernelComputeBound(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	var end time.Duration
	env.Spawn("client", func(p *devent.Proc) {
		ctx, err := dev.NewContext(p, ContextOpts{SkipInit: true})
		if err != nil {
			t.Error(err)
			return
		}
		rec, err := ctx.Run(p, Kernel{Name: "k", FLOPs: 100})
		if err != nil {
			t.Error(err)
			return
		}
		end = rec.End
	})
	run(t, env)
	near(t, end, time.Second) // 100 FLOPs / (100 SMs × 1 FLOP/s)
}

// Two procs Run on one context at once: the second finds the first
// holding the context's run slot and takes a record of its own, so each
// gets its own kernel's record, in stream order. A later Run reuses the
// slot, freed when the first Run returned.
func TestConcurrentRunsOnOneContext(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	recs := map[string]KernelRecord{}
	runK := func(p *devent.Proc, ctx *Context, name string, flops float64) {
		rec, err := ctx.Run(p, Kernel{Name: name, FLOPs: flops})
		if err != nil {
			t.Error(err)
			return
		}
		recs[name] = rec
	}
	env.Spawn("a", func(p *devent.Proc) {
		ctx, err := dev.NewContext(p, ContextOpts{SkipInit: true})
		if err != nil {
			t.Error(err)
			return
		}
		env.Spawn("b", func(p *devent.Proc) { runK(p, ctx, "b", 200) })
		runK(p, ctx, "a", 100)
		p.Sleep(5 * time.Second)
		runK(p, ctx, "c", 100)
	})
	run(t, env)
	want := map[string][2]time.Duration{"a": {0, time.Second}, "b": {time.Second, 3 * time.Second}, "c": {6 * time.Second, 7 * time.Second}}
	for name, w := range want {
		r, ok := recs[name]
		if !ok || r.Kernel.Name != name {
			t.Fatalf("%s: record %+v", name, r)
		}
		near(t, r.Start, w[0])
		near(t, r.End, w[1])
	}
}

func TestKernelMaxSMsBound(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	env.Spawn("client", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
		rec, err := ctx.Run(p, Kernel{FLOPs: 100, MaxSMs: 10})
		if err != nil {
			t.Error(err)
			return
		}
		near(t, rec.End, 10*time.Second) // only 10 SMs usable
		if rec.SMs != 10 {
			t.Errorf("SMs = %v", rec.SMs)
		}
	})
	run(t, env)
}

func TestKernelMemoryBound(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	env.Spawn("client", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
		rec, err := ctx.Run(p, Kernel{FLOPs: 100, Bytes: 200})
		if err != nil {
			t.Error(err)
			return
		}
		near(t, rec.End, 2*time.Second) // max(1s compute, 2s memory)
	})
	run(t, env)
}

func TestKernelLaunchOverhead(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	env.Spawn("client", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
		rec, err := ctx.Run(p, Kernel{FLOPs: 100, Overhead: 500 * time.Millisecond})
		if err != nil {
			t.Error(err)
			return
		}
		near(t, rec.End, 1500*time.Millisecond)
	})
	run(t, env)
}

func TestEmptyKernelCompletesImmediately(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	env.Spawn("client", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
		rec, err := ctx.Run(p, Kernel{})
		if err != nil {
			t.Error(err)
			return
		}
		near(t, rec.End, 0)
	})
	run(t, env)
}

func TestStreamSerializesKernels(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	env.Spawn("client", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
		ev1 := ctx.Launch(Kernel{FLOPs: 100})
		ev2 := ctx.Launch(Kernel{FLOPs: 100})
		v1, err1 := p.Wait(ev1)
		v2, err2 := p.Wait(ev2)
		if err1 != nil || err2 != nil {
			t.Error(err1, err2)
			return
		}
		near(t, v1.(*KernelRecord).End, time.Second)
		near(t, v2.(*KernelRecord).End, 2*time.Second)
	})
	run(t, env)
}

func TestTimeShareSerializesContexts(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	ends := make([]time.Duration, 2)
	for i := 0; i < 2; i++ {
		i := i
		env.Spawn("client", func(p *devent.Proc) {
			ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
			rec, err := ctx.Run(p, Kernel{FLOPs: 100, MaxSMs: 10})
			if err != nil {
				t.Error(err)
				return
			}
			ends[i] = rec.End
		})
	}
	run(t, env)
	// Each kernel could only use 10 SMs, but time-sharing still runs
	// them one at a time: 10 s + 10 s.
	lo, hi := ends[0], ends[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	near(t, lo, 10*time.Second)
	near(t, hi, 20*time.Second)
}

func TestTimeShareContextSwitchCost(t *testing.T) {
	spec := testSpec()
	spec.ContextSwitch = 100 * time.Millisecond
	env := devent.NewEnv()
	dev := mustDevice(t, env, spec)
	var last time.Duration
	for i := 0; i < 2; i++ {
		env.Spawn("client", func(p *devent.Proc) {
			ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
			rec, err := ctx.Run(p, Kernel{FLOPs: 100})
			if err != nil {
				t.Error(err)
				return
			}
			if rec.End > last {
				last = rec.End
			}
		})
	}
	run(t, env)
	near(t, last, 2100*time.Millisecond) // 1s + switch + 1s
}

func TestSpatialConcurrentSmallKernels(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	if err := dev.SetPolicy(PolicySpatial); err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	for i := 0; i < 2; i++ {
		env.Spawn("client", func(p *devent.Proc) {
			ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
			rec, err := ctx.Run(p, Kernel{FLOPs: 50, MaxSMs: 50})
			if err != nil {
				t.Error(err)
				return
			}
			if rec.End > last {
				last = rec.End
			}
		})
	}
	run(t, env)
	near(t, last, time.Second) // both fit side by side: 50 FLOPs / 50 SMs
}

func TestSpatialContendedFairSharing(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	dev.SetPolicy(PolicySpatial)
	var last time.Duration
	for i := 0; i < 2; i++ {
		env.Spawn("client", func(p *devent.Proc) {
			ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
			rec, err := ctx.Run(p, Kernel{FLOPs: 100})
			if err != nil {
				t.Error(err)
				return
			}
			if rec.End > last {
				last = rec.End
			}
		})
	}
	run(t, env)
	near(t, last, 2*time.Second) // 50 SMs each → 2 s each, concurrently
}

func TestSpatialSMPercentCap(t *testing.T) {
	for _, tc := range []struct {
		pct  int
		work float64
		sms  float64
		end  time.Duration
	}{
		{pct: 25, work: 100, sms: 25, end: 4 * time.Second},
		// The cap is computed in integers: ceil(7.0/100*100) in
		// floating point is 8, since 7.0/100*100 is 7.000000000000001.
		{pct: 7, work: 7, sms: 7, end: time.Second},
	} {
		env := devent.NewEnv()
		dev := mustDevice(t, env, testSpec())
		dev.SetPolicy(PolicySpatial)
		env.Spawn("client", func(p *devent.Proc) {
			ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true, SMPercent: tc.pct})
			rec, err := ctx.Run(p, Kernel{FLOPs: tc.work})
			if err != nil {
				t.Error(err)
				return
			}
			if rec.SMs != tc.sms {
				t.Errorf("%d%% of 100 SMs held %v SMs, want %v", tc.pct, rec.SMs, tc.sms)
			}
			near(t, rec.End, tc.end)
		})
		run(t, env)
	}
}

func TestProcessorSharingReevaluation(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	dev.SetPolicy(PolicySpatial)
	var endA, endB time.Duration
	env.Spawn("a", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
		rec, err := ctx.Run(p, Kernel{FLOPs: 200})
		if err != nil {
			t.Error(err)
			return
		}
		endA = rec.End
	})
	env.Spawn("b", func(p *devent.Proc) {
		p.Sleep(time.Second)
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
		rec, err := ctx.Run(p, Kernel{FLOPs: 100})
		if err != nil {
			t.Error(err)
			return
		}
		endB = rec.End
	})
	run(t, env)
	// A runs alone 0–1 s (100 of 200 FLOPs done), then shares 50/50:
	// A's remaining 100 FLOPs at 50 SM → finishes at 3 s. B's 100
	// FLOPs at 50 SM → also 3 s.
	near(t, endA, 3*time.Second)
	near(t, endB, 3*time.Second)
}

func TestBandwidthContention(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	dev.SetPolicy(PolicySpatial)
	var last time.Duration
	for i := 0; i < 2; i++ {
		env.Spawn("client", func(p *devent.Proc) {
			ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
			// Memory-bound: 1 FLOP, 100 bytes. Solo: 1 s at 100 B/s.
			rec, err := ctx.Run(p, Kernel{FLOPs: 1, Bytes: 100, MaxSMs: 10})
			if err != nil {
				t.Error(err)
				return
			}
			if rec.End > last {
				last = rec.End
			}
		})
	}
	run(t, env)
	near(t, last, 2*time.Second) // bandwidth halves → 2 s each
}

func TestDestroyAbortsKernels(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	var err1 error
	var ctx *Context
	env.Spawn("victim", func(p *devent.Proc) {
		ctx, _ = dev.NewContext(p, ContextOpts{SkipInit: true})
		_, err1 = ctx.Run(p, Kernel{FLOPs: 1000})
	})
	env.Spawn("killer", func(p *devent.Proc) {
		p.Sleep(time.Second)
		ctx.Destroy()
	})
	run(t, env)
	if !errors.Is(err1, ErrAborted) {
		t.Fatalf("err = %v", err1)
	}
	if dev.Contexts() != 0 {
		t.Fatalf("contexts = %d", dev.Contexts())
	}
}

func TestDestroyFreesMemoryAndLaunchFails(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	env.Spawn("c", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
		if _, err := ctx.Alloc("weights", 500); err != nil {
			t.Error(err)
			return
		}
		ctx.Destroy()
		if dev.Mem().Used() != 0 {
			t.Errorf("memory leak: %d", dev.Mem().Used())
		}
		if _, err := p.Wait(ctx.Launch(Kernel{FLOPs: 1})); !errors.Is(err, ErrDestroyed) {
			t.Errorf("launch after destroy: %v", err)
		}
		if _, err := ctx.Alloc("x", 1); !errors.Is(err, ErrDestroyed) {
			t.Errorf("alloc after destroy: %v", err)
		}
	})
	run(t, env)
}

func TestContextInitCost(t *testing.T) {
	spec := testSpec()
	spec.ContextInit = 800 * time.Millisecond
	env := devent.NewEnv()
	dev := mustDevice(t, env, spec)
	env.Spawn("c", func(p *devent.Proc) {
		ctx, err := dev.NewContext(p, ContextOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		near(t, ctx.CreatedAt(), 800*time.Millisecond)
	})
	run(t, env)
}

func TestSetPolicyRequiresNoContexts(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	env.Spawn("c", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
		if err := dev.SetPolicy(PolicySpatial); !errors.Is(err, ErrBusy) {
			t.Errorf("SetPolicy with live context: %v", err)
		}
		ctx.Destroy()
		if err := dev.SetPolicy(PolicySpatial); err != nil {
			t.Errorf("SetPolicy after destroy: %v", err)
		}
	})
	run(t, env)
}

func TestUtilizationAccounting(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	env.Spawn("c", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
		ctx.Run(p, Kernel{FLOPs: 100, MaxSMs: 50}) // 2 s at 50 SMs
	})
	run(t, env)
	got := dev.Utilization(0, 2*time.Second)
	if got < 0.49 || got > 0.51 {
		t.Fatalf("utilization = %v", got)
	}
	// Over a 4 s window the device idles half the time.
	got = dev.Utilization(0, 4*time.Second)
	if got < 0.24 || got > 0.26 {
		t.Fatalf("windowed utilization = %v", got)
	}
}

func TestVGPUTimeSlicing(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	if err := dev.SetPolicy(PolicyVGPU); err != nil {
		t.Fatal(err)
	}
	dev.SetVGPUQuantum(100 * time.Millisecond)
	var last time.Duration
	for i := 0; i < 2; i++ {
		i := i
		env.Spawn("vm", func(p *devent.Proc) {
			ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true, Group: fmt.Sprintf("vm%d", i)})
			rec, err := ctx.Run(p, Kernel{FLOPs: 100})
			if err != nil {
				t.Error(err)
				return
			}
			if rec.End > last {
				last = rec.End
			}
		})
	}
	run(t, env)
	// Strict alternation: 2 s of total work serialized ⇒ last finishes
	// at ≈2 s (quantum boundaries may add one slice of slack).
	if last < 1900*time.Millisecond || last > 2200*time.Millisecond {
		t.Fatalf("last = %v", last)
	}
}

func TestTransferH2D(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	env.Spawn("c", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
		ctx.Transfer(p, 200, dev.Spec().PCIeBW) // 200 B at 100 B/s
		near(t, p.Now(), 2*time.Second)
	})
	run(t, env)
}

func TestDeterministicScheduling(t *testing.T) {
	runOnce := func() string {
		env := devent.NewEnv()
		dev := mustDevice(t, env, testSpec())
		dev.SetPolicy(PolicySpatial)
		var out string
		for i := 0; i < 5; i++ {
			i := i
			env.Spawn("c", func(p *devent.Proc) {
				p.Sleep(time.Duration(i*137) * time.Millisecond)
				ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
				rec, err := ctx.Run(p, Kernel{FLOPs: float64(50 + i*30), MaxSMs: 40})
				if err != nil {
					t.Error(err)
					return
				}
				out += fmt.Sprintf("%d:%v;", i, rec.End)
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("nondeterministic:\n%s\n%s", a, b)
	}
}
