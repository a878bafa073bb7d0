package simgpu

import (
	"errors"
	"testing"
	"time"

	"repro/internal/devent"
)

func migDevice(t *testing.T, env *devent.Env) *Device {
	t.Helper()
	d, err := NewDevice(env, "gpu0", A100SXM480GB())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEnableMIGCostsReset(t *testing.T) {
	env := devent.NewEnv()
	dev := migDevice(t, env)
	env.Spawn("admin", func(p *devent.Proc) {
		if err := dev.EnableMIG(p); err != nil {
			t.Error(err)
			return
		}
		if p.Now() != dev.Spec().ResetTime {
			t.Errorf("reset took %v", p.Now())
		}
		if !dev.MIGEnabled() {
			t.Error("MIG not enabled")
		}
		// Plain contexts are now rejected.
		if _, err := dev.NewContext(p, ContextOpts{SkipInit: true}); !errors.Is(err, ErrMIGMode) {
			t.Errorf("NewContext in MIG mode: %v", err)
		}
	})
	run(t, env)
}

func TestEnableMIGRequiresNoContexts(t *testing.T) {
	env := devent.NewEnv()
	dev := migDevice(t, env)
	env.Spawn("admin", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, ContextOpts{SkipInit: true})
		if err := dev.EnableMIG(p); !errors.Is(err, ErrBusy) {
			t.Errorf("EnableMIG with live ctx: %v", err)
		}
		ctx.Destroy()
		if err := dev.EnableMIG(p); err != nil {
			t.Error(err)
		}
	})
	run(t, env)
}

func TestMIGPlacementRules(t *testing.T) {
	env := devent.NewEnv()
	dev := migDevice(t, env)
	env.Spawn("admin", func(p *devent.Proc) {
		if err := dev.EnableMIG(p); err != nil {
			t.Error(err)
			return
		}
		// 3g at slices 0–2, second 3g at 4–6 — the classic pair.
		a, err := dev.CreateInstance("3g.40gb")
		if err != nil {
			t.Error(err)
			return
		}
		b, err := dev.CreateInstance("3g.40gb")
		if err != nil {
			t.Error(err)
			return
		}
		if a.start != 0 || b.start != 4 {
			t.Errorf("starts = %d, %d", a.start, b.start)
		}
		if a.SMs() != 3*14 {
			t.Errorf("SMs = %d", a.SMs())
		}
		// Memory slices are exhausted (4+4 of 8): even the 1-slice
		// compute hole can't be filled.
		if _, err := dev.CreateInstance("1g.10gb"); !errors.Is(err, ErrPlacement) {
			t.Errorf("1g over memory budget: %v", err)
		}
	})
	run(t, env)
}

func TestMIGPlacementComputeConflict(t *testing.T) {
	env := devent.NewEnv()
	dev := migDevice(t, env)
	env.Spawn("admin", func(p *devent.Proc) {
		dev.EnableMIG(p)
		if _, err := dev.CreateInstance("4g.40gb"); err != nil {
			t.Error(err)
			return
		}
		// 4g occupies slices 0–3; a second 4g has no legal start.
		if _, err := dev.CreateInstance("4g.40gb"); !errors.Is(err, ErrPlacement) {
			t.Errorf("second 4g: %v", err)
		}
		// 3g fits at slice 4.
		if _, err := dev.CreateInstance("3g.40gb"); err != nil {
			t.Error(err)
		}
	})
	run(t, env)
}

func TestMIGSevenWay(t *testing.T) {
	env := devent.NewEnv()
	dev := migDevice(t, env)
	env.Spawn("admin", func(p *devent.Proc) {
		dev.EnableMIG(p)
		for i := 0; i < 7; i++ {
			if _, err := dev.CreateInstance("1g.10gb"); err != nil {
				// Only 8 memory slices, but 7×1 fits.
				t.Errorf("instance %d: %v", i, err)
				return
			}
		}
		if len(dev.instances) != 7 {
			t.Errorf("instances = %d", len(dev.instances))
		}
		if _, err := dev.CreateInstance("1g.10gb"); !errors.Is(err, ErrPlacement) {
			t.Errorf("8th 1g: %v", err)
		}
	})
	run(t, env)
}

func TestMIGUnknownProfile(t *testing.T) {
	env := devent.NewEnv()
	dev := migDevice(t, env)
	env.Spawn("admin", func(p *devent.Proc) {
		dev.EnableMIG(p)
		if _, err := dev.CreateInstance("9g.90gb"); err == nil {
			t.Error("unknown profile accepted")
		}
	})
	run(t, env)
}

func TestMIGIsolation(t *testing.T) {
	env := devent.NewEnv()
	dev := migDevice(t, env)
	var soloEnd, sharedEnd time.Duration
	env.Spawn("admin", func(p *devent.Proc) {
		dev.EnableMIG(p)
		a, err := dev.CreateInstance("3g.40gb")
		if err != nil {
			t.Error(err)
			return
		}
		b, err := dev.CreateInstance("3g.40gb")
		if err != nil {
			t.Error(err)
			return
		}
		base := p.Now()
		k := Kernel{FLOPs: A100SXM480GB().PerSMFLOPS() * 42} // 1 s on 42 SMs
		done := make([]*devent.Event, 0, 2)
		for _, in := range []*Instance{a, b} {
			in := in
			pr := env.Spawn("tenant", func(q *devent.Proc) {
				ctx, err := in.NewContext(q, ContextOpts{SkipInit: true})
				if err != nil {
					t.Error(err)
					return
				}
				rec, err := ctx.Run(q, k)
				if err != nil {
					t.Error(err)
					return
				}
				sharedEnd = rec.End - base
			})
			done = append(done, pr.Done())
		}
		for _, ev := range done {
			p.Wait(ev)
		}
		// Solo reference on instance a.
		pr := env.Spawn("solo", func(q *devent.Proc) {
			ctx, _ := a.NewContext(q, ContextOpts{SkipInit: true})
			start := q.Now()
			rec, err := ctx.Run(q, k)
			if err != nil {
				t.Error(err)
				return
			}
			soloEnd = rec.End - start
		})
		p.Wait(pr.Done())
	})
	run(t, env)
	// Compute isolation: running on both instances concurrently takes
	// the same time as running alone.
	near(t, sharedEnd, soloEnd)
	near(t, soloEnd, time.Second)
}

func TestMIGMemoryIsolation(t *testing.T) {
	env := devent.NewEnv()
	dev := migDevice(t, env)
	env.Spawn("admin", func(p *devent.Proc) {
		dev.EnableMIG(p)
		a, _ := dev.CreateInstance("1g.10gb")
		ctx, err := a.NewContext(p, ContextOpts{SkipInit: true})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := ctx.Alloc("big", 11*GB); !errors.Is(err, ErrOOM) {
			t.Errorf("11 GB into 1g.10gb: %v", err)
		}
		if _, err := ctx.Alloc("ok", 9*GB); err != nil {
			t.Errorf("9 GB into 1g.10gb: %v", err)
		}
	})
	run(t, env)
}

func TestMIGBandwidthScalesWithMemSlices(t *testing.T) {
	env := devent.NewEnv()
	dev := migDevice(t, env)
	env.Spawn("admin", func(p *devent.Proc) {
		dev.EnableMIG(p)
		in, _ := dev.CreateInstance("1g.10gb") // 1 of 8 memory slices
		ctx, _ := in.NewContext(p, ContextOpts{SkipInit: true})
		spec := dev.Spec()
		bytes := spec.MemBW / 8 // 1 s at 1/8 bandwidth
		start := p.Now()
		rec, err := ctx.Run(p, Kernel{FLOPs: 1, Bytes: bytes})
		if err != nil {
			t.Error(err)
			return
		}
		near(t, rec.End-start, time.Second)
	})
	run(t, env)
}

func TestDestroyInstanceRequiresNoContexts(t *testing.T) {
	env := devent.NewEnv()
	dev := migDevice(t, env)
	env.Spawn("admin", func(p *devent.Proc) {
		dev.EnableMIG(p)
		in, _ := dev.CreateInstance("7g.80gb")
		ctx, _ := in.NewContext(p, ContextOpts{SkipInit: true})
		if err := dev.DestroyInstance(in); !errors.Is(err, ErrBusy) {
			t.Errorf("destroy with ctx: %v", err)
		}
		ctx.Destroy()
		if err := dev.DestroyInstance(in); err != nil {
			t.Error(err)
		}
		if len(dev.instances) != 0 {
			t.Error("instance still listed")
		}
	})
	run(t, env)
}

func TestConfigureMIGReplacesLayoutWithResetCost(t *testing.T) {
	env := devent.NewEnv()
	dev := migDevice(t, env)
	env.Spawn("admin", func(p *devent.Proc) {
		dev.EnableMIG(p)
		if _, err := dev.ConfigureMIG(p, []string{"3g.40gb", "3g.40gb"}); err != nil {
			t.Error(err)
			return
		}
		before := p.Now()
		ins, err := dev.ConfigureMIG(p, []string{"2g.20gb", "2g.20gb", "2g.20gb"})
		if err != nil {
			t.Error(err)
			return
		}
		if p.Now()-before != dev.Spec().ResetTime {
			t.Errorf("reconfigure took %v", p.Now()-before)
		}
		if len(ins) != 3 || len(dev.instances) != 3 {
			t.Errorf("layout = %d instances", len(dev.instances))
		}
	})
	run(t, env)
}

func TestConfigureMIGBusyAndRollback(t *testing.T) {
	env := devent.NewEnv()
	dev := migDevice(t, env)
	env.Spawn("admin", func(p *devent.Proc) {
		dev.EnableMIG(p)
		in, _ := dev.CreateInstance("3g.40gb")
		ctx, _ := in.NewContext(p, ContextOpts{SkipInit: true})
		if _, err := dev.ConfigureMIG(p, []string{"7g.80gb"}); !errors.Is(err, ErrBusy) {
			t.Errorf("configure while busy: %v", err)
		}
		ctx.Destroy()
		// Invalid layout rolls back to the old one.
		if _, err := dev.ConfigureMIG(p, []string{"4g.40gb", "4g.40gb"}); !errors.Is(err, ErrPlacement) {
			t.Errorf("invalid layout: %v", err)
		}
		if len(dev.instances) != 1 || dev.instances[0] != in {
			t.Error("rollback failed")
		}
	})
	run(t, env)
}

// TestMIGReconfigureUnderLoad exercises the online-repartitioning drain
// protocol at the device layer: while a kernel is actively executing on
// an instance, ConfigureMIG and DestroyInstance must refuse with
// ErrBusy and leave the layout intact, and the in-flight kernel must
// complete unperturbed. Once the tenant drains, the same
// reconfiguration succeeds.
func TestMIGReconfigureUnderLoad(t *testing.T) {
	env := devent.NewEnv()
	dev := migDevice(t, env)
	env.Spawn("admin", func(p *devent.Proc) {
		dev.EnableMIG(p)
		in, err := dev.CreateInstance("3g.40gb")
		if err != nil {
			t.Error(err)
			return
		}
		var ctx *Context
		var elapsed time.Duration
		tenant := env.Spawn("tenant", func(q *devent.Proc) {
			ctx, err = in.NewContext(q, ContextOpts{SkipInit: true})
			if err != nil {
				t.Error(err)
				return
			}
			start := q.Now()
			k := Kernel{FLOPs: dev.Spec().PerSMFLOPS() * 42} // 1 s on the 3g instance's 42 SMs
			rec, err := ctx.Run(q, k)
			if err != nil {
				t.Error(err)
				return
			}
			elapsed = rec.End - start
		})
		p.Sleep(500 * time.Millisecond) // mid-kernel
		if _, err := dev.ConfigureMIG(p, []string{"2g.20gb", "2g.20gb"}); !errors.Is(err, ErrBusy) {
			t.Errorf("ConfigureMIG mid-kernel: %v", err)
		}
		if err := dev.DestroyInstance(in); !errors.Is(err, ErrBusy) {
			t.Errorf("DestroyInstance mid-kernel: %v", err)
		}
		if len(dev.instances) != 1 || dev.instances[0] != in {
			t.Error("layout perturbed by rejected reconfiguration")
		}
		p.Wait(tenant.Done())
		// The rejected admin calls must not have slowed the kernel.
		near(t, elapsed, time.Second)
		ctx.Destroy()
		ins, err := dev.ConfigureMIG(p, []string{"2g.20gb", "2g.20gb"})
		if err != nil {
			t.Error(err)
			return
		}
		if len(ins) != 2 || len(dev.instances) != 2 {
			t.Errorf("layout = %d instances", len(dev.instances))
		}
	})
	run(t, env)
}

func TestInstanceByUUID(t *testing.T) {
	env := devent.NewEnv()
	dev := migDevice(t, env)
	env.Spawn("admin", func(p *devent.Proc) {
		dev.EnableMIG(p)
		in, _ := dev.CreateInstance("2g.20gb")
		if dev.InstanceByUUID(in.UUID()) != in {
			t.Error("lookup by UUID failed")
		}
		if dev.InstanceByUUID("nope") != nil {
			t.Error("phantom instance")
		}
	})
	run(t, env)
}

func TestMIGUtilizationAggregation(t *testing.T) {
	env := devent.NewEnv()
	dev := migDevice(t, env)
	env.Spawn("admin", func(p *devent.Proc) {
		dev.EnableMIG(p)
		in, _ := dev.CreateInstance("7g.80gb") // 98 SMs
		ctx, _ := in.NewContext(p, ContextOpts{SkipInit: true})
		base := p.Now()
		// Busy all 98 SMs for 1 s.
		k := Kernel{FLOPs: dev.Spec().PerSMFLOPS() * 98}
		if _, err := ctx.Run(p, k); err != nil {
			t.Error(err)
			return
		}
		u := dev.Utilization(base, base+time.Second)
		// 98 busy of 108 physical SMs ≈ 0.907.
		if u < 0.89 || u > 0.92 {
			t.Errorf("utilization = %v", u)
		}
	})
	run(t, env)
}

func TestProfileTables(t *testing.T) {
	for _, spec := range []DeviceSpec{A100SXM440GB(), A100SXM480GB()} {
		profs := MIGProfilesFor(spec)
		if len(profs) != 5 {
			t.Fatalf("%s: %d profiles", spec.Name, len(profs))
		}
		for _, pr := range profs {
			if pr.Slices < 1 || pr.Slices > spec.MIGSlices {
				t.Fatalf("%s: bad slices %d", pr.Name, pr.Slices)
			}
			if pr.MemBytes <= 0 || pr.MemBytes > spec.MemBytes {
				t.Fatalf("%s: bad mem %d", pr.Name, pr.MemBytes)
			}
		}
	}
	if profs := MIGProfilesFor(MI210()); profs != nil {
		t.Fatal("MI210 should have no MIG profiles")
	}
}
