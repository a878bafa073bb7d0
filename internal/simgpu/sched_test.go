package simgpu

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/devent"
)

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyTimeShare: "timeshare",
		PolicySpatial:   "spatial",
		PolicyVGPU:      "vgpu",
		Policy(42):      "unknown",
	} {
		if p.String() != want {
			t.Fatalf("%d -> %s", p, p.String())
		}
	}
}

func TestKernelScale(t *testing.T) {
	k := Kernel{FLOPs: 10, Bytes: 20, MaxSMs: 5, Overhead: time.Second}
	s := k.Scale(3)
	if s.FLOPs != 30 || s.Bytes != 60 {
		t.Fatalf("scaled = %+v", s)
	}
	if s.MaxSMs != 5 || s.Overhead != time.Second {
		t.Fatal("Scale should not touch parallelism or overhead")
	}
	if k.FLOPs != 10 {
		t.Fatal("Scale mutated the receiver")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []DeviceSpec{
		{SMs: 0, MemBytes: 1, FP32FLOPS: 1, MemBW: 1},
		{SMs: 1, MemBytes: 0, FP32FLOPS: 1, MemBW: 1},
		{SMs: 1, MemBytes: 1, FP32FLOPS: 0, MemBW: 1},
		{SMs: 1, MemBytes: 1, FP32FLOPS: 1, MemBW: 0},
		{SMs: 1, MemBytes: 1, FP32FLOPS: 1, MemBW: 1, MIGSlices: -1},
		{SMs: 10, MemBytes: 1, FP32FLOPS: 1, MemBW: 1, MIGSlices: 7, SMsPerSlice: 14},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
	for _, spec := range []DeviceSpec{A100SXM440GB(), A100SXM480GB(), MI210()} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s rejected: %v", spec.Name, err)
		}
	}
	env := devent.NewEnv()
	if _, err := NewDevice(env, "bad", DeviceSpec{}); err == nil {
		t.Error("NewDevice accepted a zero spec")
	}
}

func TestMPSOversubscription(t *testing.T) {
	// Three clients at 50% each on a 100-SM device: total demand 150
	// SMs; max-min fairness gives each ~33.
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	dev.SetPolicy(PolicySpatial)
	var last time.Duration
	for i := 0; i < 3; i++ {
		env.Spawn("c", func(p *devent.Proc) {
			ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true, SMPercent: 50})
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
	near(t, last, 3*time.Second) // 100 FLOPs / 33.3 SMs
}

func TestTimeShareRoundRobinFairness(t *testing.T) {
	// Three contexts each with a stream of 1-second kernels: the
	// round-robin must interleave them, not drain one stream first.
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	firstEnd := make([]time.Duration, 3)
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn("c", func(p *devent.Proc) {
			ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
			ev1 := ctx.Launch(Kernel{FLOPs: 100})
			ev2 := ctx.Launch(Kernel{FLOPs: 100})
			v, err := p.Wait(ev1)
			if err != nil {
				t.Error(err)
				return
			}
			firstEnd[i] = v.(*KernelRecord).End
			p.Wait(ev2)
		})
	}
	run(t, env)
	// Every context's FIRST kernel completes within the first three
	// seconds (fair interleave); if one stream were drained first,
	// another context's first kernel would wait ≥4 s.
	for i, e := range firstEnd {
		if e > 3*time.Second+time.Microsecond {
			t.Fatalf("context %d first kernel at %v (starved)", i, e)
		}
	}
}

func TestVGPUPauseResumeConservesWork(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	dev.SetPolicy(PolicyVGPU)
	dev.SetVGPUQuantum(50 * time.Millisecond)
	ends := make([]time.Duration, 2)
	for i := 0; i < 2; i++ {
		i := i
		env.Spawn("vm", func(p *devent.Proc) {
			ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true, Group: fmt.Sprintf("vm%d", i)})
			rec, err := ctx.Run(p, Kernel{FLOPs: 100})
			if err != nil {
				t.Error(err)
				return
			}
			ends[i] = rec.End
		})
	}
	run(t, env)
	// Total 2 s of work, strictly alternating: both finish by ~2 s and
	// the sum of completion times ≈ 1.5·makespan + 0.5·makespan.
	for i, e := range ends {
		if e > 2100*time.Millisecond {
			t.Fatalf("vm%d end = %v", i, e)
		}
	}
}

func TestVGPUSingleGroupRunsUninterrupted(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	dev.SetPolicy(PolicyVGPU)
	env.Spawn("vm", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true, Group: "only"})
		rec, err := ctx.Run(p, Kernel{FLOPs: 100})
		if err != nil {
			t.Error(err)
			return
		}
		near(t, rec.End, time.Second) // no rotation penalty
	})
	run(t, env)
}

func TestRunAllPropagatesAbort(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	var ctx *Context
	var got error
	env.Spawn("victim", func(p *devent.Proc) {
		ctx, _ = dev.NewContext(p, ContextOpts{SkipInit: true})
		got = ctx.RunAll(p, []Kernel{{FLOPs: 100}, {FLOPs: 100}, {FLOPs: 100}})
	})
	env.Spawn("killer", func(p *devent.Proc) {
		p.Sleep(1500 * time.Millisecond)
		ctx.Destroy()
	})
	run(t, env)
	if got == nil {
		t.Fatal("RunAll survived context destroy")
	}
}

func TestRunAllEmpty(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	env.Spawn("c", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
		if err := ctx.RunAll(p, nil); err != nil {
			t.Error(err)
		}
	})
	run(t, env)
}

func TestBusySeriesDropsToZeroAfterCompletion(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	env.Spawn("c", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
		ctx.Run(p, Kernel{FLOPs: 100, MaxSMs: 30})
	})
	run(t, env)
	s := dev.BusySeries()
	if got := s.At(500 * time.Millisecond); got != 30 {
		t.Fatalf("busy mid-kernel = %v", got)
	}
	if got := s.At(5 * time.Second); got != 0 {
		t.Fatalf("busy after completion = %v", got)
	}
}

func TestContextOptsValidation(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	env.Spawn("c", func(p *devent.Proc) {
		if _, err := dev.NewContext(p, ContextOpts{SkipInit: true, SMPercent: -1}); err == nil {
			t.Error("negative percent accepted")
		}
		if _, err := dev.NewContext(p, ContextOpts{SkipInit: true, SMPercent: 101}); err == nil {
			t.Error("percent >100 accepted")
		}
	})
	run(t, env)
}

func TestKernelRecordFields(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	env.Spawn("c", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true, Name: "svc"})
		p.Sleep(time.Second)
		rec, err := ctx.Run(p, Kernel{Name: "k", FLOPs: 100, Tag: "x"})
		if err != nil {
			t.Error(err)
			return
		}
		if rec.Context != "svc" || rec.Domain != "gpu0" || rec.Kernel.Tag != "x" {
			t.Errorf("rec = %+v", rec)
		}
		near(t, rec.Enqueue, time.Second)
		near(t, rec.Start, time.Second)
		near(t, rec.End, 2*time.Second)
	})
	run(t, env)
}

// Property: work conservation under spatial sharing — the integral of
// busy SMs equals the total SM-seconds of the submitted kernels,
// whatever the arrival pattern (all kernels compute-bound, demands
// within device capacity so no truncation effects).
func TestQuickSpatialWorkConservation(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 24 {
			return true
		}
		env := devent.NewEnv()
		dev, err := NewDevice(env, "gpu0", testSpec())
		if err != nil {
			return false
		}
		dev.SetPolicy(PolicySpatial)
		var wantSMSeconds float64
		for i, r := range raw {
			flops := float64(r%50+1) * 4 // FLOPs = SM-seconds at 1 FLOP/s/SM
			maxSMs := int(r%16) + 1
			start := time.Duration(i%5) * 100 * time.Millisecond
			wantSMSeconds += flops
			env.Spawn("c", func(p *devent.Proc) {
				p.Sleep(start)
				ctx, err := dev.NewContext(p, ContextOpts{SkipInit: true})
				if err != nil {
					env.Fail(err)
					return
				}
				if _, err := ctx.Run(p, Kernel{FLOPs: flops, MaxSMs: maxSMs}); err != nil {
					env.Fail(err)
					return
				}
			})
		}
		if err := env.Run(); err != nil {
			return false
		}
		got := dev.BusySeries().Integral(0, env.Now()+time.Second)
		return math.Abs(got-wantSMSeconds) < 1e-3*wantSMSeconds+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: busy SMs never exceed the domain size.
func TestQuickBusyNeverExceedsCapacity(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 16 {
			return true
		}
		env := devent.NewEnv()
		dev, _ := NewDevice(env, "gpu0", testSpec())
		dev.SetPolicy(PolicySpatial)
		for _, r := range raw {
			flops := float64(r%100 + 1)
			env.Spawn("c", func(p *devent.Proc) {
				ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
				ctx.Run(p, Kernel{FLOPs: flops})
			})
		}
		if err := env.Run(); err != nil {
			return false
		}
		s := dev.BusySeries()
		for i := 0; i < s.Len(); i++ {
			if _, v := s.Step(i); v > 100+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// A kernel launched while its predecessor on the same stream runs
// must wait (stream ordering) even under spatial policy.
func TestSpatialStreamOrdering(t *testing.T) {
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	dev.SetPolicy(PolicySpatial)
	env.Spawn("c", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
		ev1 := ctx.Launch(Kernel{FLOPs: 100, MaxSMs: 10})
		ev2 := ctx.Launch(Kernel{FLOPs: 100, MaxSMs: 10})
		v2, err := p.Wait(ev2)
		if err != nil {
			t.Error(err)
			return
		}
		v1, _ := p.Wait(ev1)
		if v2.(*KernelRecord).Start < v1.(*KernelRecord).End {
			t.Error("second kernel overlapped the first on one stream")
		}
	})
	run(t, env)
}

func TestMemoryBoundKernelIgnoresSMCap(t *testing.T) {
	// A pure-copy kernel's duration depends on bandwidth, not SMs.
	env := devent.NewEnv()
	dev := mustDevice(t, env, testSpec())
	dev.SetPolicy(PolicySpatial)
	env.Spawn("c", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true, SMPercent: 10})
		rec, err := ctx.Run(p, Kernel{Bytes: 100})
		if err != nil {
			t.Error(err)
			return
		}
		near(t, rec.End, time.Second) // 100 B at 100 B/s, SM cap irrelevant
	})
	run(t, env)
}
