package llm

import (
	"errors"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/metrics"
	"repro/internal/simgpu"
)

func a100(t *testing.T, env *devent.Env, name string) *simgpu.Device {
	t.Helper()
	d, err := simgpu.NewDevice(env, name, simgpu.A100SXM480GB())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func runEnv(t *testing.T, env *devent.Env) {
	t.Helper()
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func between(t *testing.T, name string, got, lo, hi time.Duration) {
	t.Helper()
	if got < lo || got > hi {
		t.Fatalf("%s = %v, want in [%v, %v]", name, got, lo, hi)
	}
}

func TestSoloCompletionMatchesPaperLatency(t *testing.T) {
	env := devent.NewEnv()
	dev := a100(t, env, "gpu0")
	env.Spawn("svc", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		e := New(LLaMa27B())
		if err := e.Load(p, []*simgpu.Context{ctx}, dev.Spec().HostLoadBW); err != nil {
			t.Error(err)
			return
		}
		c, err := e.Complete(p, 20, 20)
		if err != nil {
			t.Error(err)
			return
		}
		// Paper Fig. 2: ≈4.5 s for a 20-token completion on a full
		// A100 (plus our small prefill).
		between(t, "completion latency", c.Latency, 4400*time.Millisecond, 4800*time.Millisecond)
	})
	runEnv(t, env)
}

func TestCPUBaselineIs40xSlower(t *testing.T) {
	cfg := LLaMa27B()
	cpu := cfg.CPUCompletionTime(20)
	if cpu != 180*time.Second {
		t.Fatalf("7B CPU = %v", cpu)
	}
	if got := LLaMa213B().CPUCompletionTime(20); got != 360*time.Second {
		t.Fatalf("13B CPU = %v", got)
	}
	// GPU ≈ 4.5 s → ratio ≈ 40×.
	ratio := cpu.Seconds() / 4.5
	if ratio < 35 || ratio > 45 {
		t.Fatalf("CPU/GPU ratio = %.1f", ratio)
	}
}

// Fig. 2's shape: latency falls steeply up to ~20 SMs, then is flat.
func TestSMSweepSaturatesAtTwenty(t *testing.T) {
	latency := func(pct int) time.Duration {
		env := devent.NewEnv()
		dev := a100(t, env, "gpu0")
		if err := dev.SetPolicy(simgpu.PolicySpatial); err != nil {
			t.Fatal(err)
		}
		var lat time.Duration
		env.Spawn("svc", func(p *devent.Proc) {
			ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true, SMPercent: pct})
			e := New(LLaMa27B())
			if err := e.Load(p, []*simgpu.Context{ctx}, dev.Spec().HostLoadBW); err != nil {
				t.Error(err)
				return
			}
			c, err := e.Complete(p, 20, 20)
			if err != nil {
				t.Error(err)
				return
			}
			lat = c.Latency
		})
		runEnv(t, env)
		return lat
	}
	l6 := latency(6)   // ≈7 SMs
	l13 := latency(13) // ≈15 SMs
	l19 := latency(19) // ≈21 SMs
	l50 := latency(50) // 54 SMs
	l100 := latency(0) // whole device
	if !(l6 > l13 && l13 > l19) {
		t.Fatalf("no speedup below knee: %v %v %v", l6, l13, l19)
	}
	if l6 < 2*l100 {
		t.Fatalf("starved latency %v should be ≥2× full %v", l6, l100)
	}
	// Flat after the knee: within 5%.
	if diff := float64(l19-l50) / float64(l50); diff > 0.05 || diff < -0.05 {
		t.Fatalf("l19=%v l50=%v not flat", l19, l50)
	}
	if diff := float64(l50-l100) / float64(l100); diff > 0.05 || diff < -0.05 {
		t.Fatalf("l50=%v l100=%v not flat", l50, l100)
	}
}

// Fig. 4's memory constraint: four 7B instances fit an 80 GB A100,
// a fifth does not.
func TestOnlyFourInstancesFit(t *testing.T) {
	env := devent.NewEnv()
	dev := a100(t, env, "gpu0")
	dev.SetPolicy(simgpu.PolicySpatial)
	env.Spawn("loader", func(p *devent.Proc) {
		for i := 0; i < 4; i++ {
			ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
			e := New(LLaMa27B())
			if err := e.Load(p, []*simgpu.Context{ctx}, dev.Spec().HostLoadBW); err != nil {
				t.Errorf("instance %d: %v", i, err)
				return
			}
		}
		ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		e := New(LLaMa27B())
		if err := e.Load(p, []*simgpu.Context{ctx}, dev.Spec().HostLoadBW); !errors.Is(err, simgpu.ErrOOM) {
			t.Errorf("fifth instance: %v", err)
		}
	})
	runEnv(t, env)
}

func TestLoadTimeMatchesColdStartClaims(t *testing.T) {
	env := devent.NewEnv()
	dev := a100(t, env, "gpu0")
	env.Spawn("svc", func(p *devent.Proc) {
		// 13B at fp32 (the paper's Fig. 2 precision): 52 GB at 5 GB/s
		// ≈ 10.4 s — the paper's "up to 10 seconds" (§6).
		cfg := LLaMa213B()
		cfg.BytesPerParam = 4
		ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		e := New(cfg)
		if err := e.Load(p, []*simgpu.Context{ctx}, dev.Spec().HostLoadBW); err != nil {
			// 52 GB does not fit one 80 GB device alongside workspace?
			// It does: 52+4 = 56 < 80.
			t.Error(err)
			return
		}
		between(t, "13B fp32 load", e.LoadTime(), 10*time.Second, 11*time.Second)
	})
	runEnv(t, env)
}

func TestThirteenBTwoGPUSharding(t *testing.T) {
	env := devent.NewEnv()
	dev0 := a100(t, env, "gpu0")
	dev1 := a100(t, env, "gpu1")
	env.Spawn("svc", func(p *devent.Proc) {
		c0, _ := dev0.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		c1, _ := dev1.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		e := New(LLaMa213B())
		if err := e.Load(p, []*simgpu.Context{c0, c1}, dev0.Spec().HostLoadBW); err != nil {
			t.Error(err)
			return
		}
		// Weights split across both devices.
		if dev0.Mem().Used() == 0 || dev1.Mem().Used() == 0 {
			t.Error("weights not sharded")
		}
		c, err := e.Complete(p, 20, 20)
		if err != nil {
			t.Error(err)
			return
		}
		// 13B ≈ 2× the 7B latency: (360+90) ms × 20 ≈ 9 s.
		between(t, "13B completion", c.Latency, 8800*time.Millisecond, 9600*time.Millisecond)
	})
	runEnv(t, env)
}

// The MPS multi-tenant slowdown comes from bandwidth contention, not
// SM starvation: four 25% clients each still exceed the 20-SM knee.
func TestFourWayMPSContention(t *testing.T) {
	env := devent.NewEnv()
	dev := a100(t, env, "gpu0")
	dev.SetPolicy(simgpu.PolicySpatial)
	results := make([]*metrics.Durations, 4)
	for i := 0; i < 4; i++ {
		i := i
		env.Spawn("svc", func(p *devent.Proc) {
			ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true, SMPercent: 25})
			e := New(LLaMa27B())
			if err := e.Load(p, []*simgpu.Context{ctx}, dev.Spec().HostLoadBW); err != nil {
				t.Error(err)
				return
			}
			var lat metrics.Durations
			for n := 0; n < 5; n++ {
				c, err := e.Complete(p, 20, 20)
				if err != nil {
					t.Error(err)
					return
				}
				lat.Add(c.Latency)
			}
			results[i] = &lat
		})
	}
	runEnv(t, env)
	for i, r := range results {
		if r == nil {
			t.Fatalf("service %d missing", i)
		}
		// Per-token ≈ max(180 compute, 288 contended mem) + 45 gap ≈
		// 333 ms ⇒ completion ≈ 6.7 s (some loads are staggered, so
		// allow early completions to run faster).
		mean := r.Mean()
		between(t, "contended completion", mean, 5500*time.Millisecond, 7300*time.Millisecond)
	}
}

func TestAttachCachedSkipsLoad(t *testing.T) {
	env := devent.NewEnv()
	dev := a100(t, env, "gpu0")
	env.Spawn("svc", func(p *devent.Proc) {
		cfg := LLaMa27B()
		seg, err := dev.Mem().AllocShared("cached-weights", cfg.WeightBytes())
		if err != nil {
			t.Error(err)
			return
		}
		seg.Pin()
		ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		e := New(cfg)
		before := p.Now()
		if err := e.AttachCached(p, []*simgpu.Context{ctx}, []*simgpu.Segment{seg}); err != nil {
			t.Error(err)
			return
		}
		if got := p.Now() - before; got != 0 {
			t.Errorf("cached attach took %v", got)
		}
		if !e.Loaded() {
			t.Error("engine not loaded after attach")
		}
		if _, err := e.Complete(p, 4, 4); err != nil {
			t.Error(err)
		}
	})
	runEnv(t, env)
}

func TestCompleteBeforeLoadFails(t *testing.T) {
	env := devent.NewEnv()
	a100(t, env, "gpu0")
	env.Spawn("svc", func(p *devent.Proc) {
		e := New(LLaMa27B())
		if _, err := e.Complete(p, 4, 4); !errors.Is(err, ErrNotLoaded) {
			t.Errorf("err = %v", err)
		}
	})
	runEnv(t, env)
}

func TestUnloadFreesMemory(t *testing.T) {
	env := devent.NewEnv()
	dev := a100(t, env, "gpu0")
	env.Spawn("svc", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		e := New(LLaMa27B())
		if err := e.Load(p, []*simgpu.Context{ctx}, dev.Spec().HostLoadBW); err != nil {
			t.Error(err)
			return
		}
		if dev.Mem().Used() == 0 {
			t.Error("nothing allocated")
		}
		e.Unload()
		if dev.Mem().Used() != 0 {
			t.Errorf("leak: %d bytes", dev.Mem().Used())
		}
		if e.Loaded() {
			t.Error("still loaded")
		}
	})
	runEnv(t, env)
}

func TestLoadRollsBackOnOOM(t *testing.T) {
	env := devent.NewEnv()
	dev := a100(t, env, "gpu0")
	env.Spawn("svc", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		cfg := LLaMa27B()
		cfg.WeightBytesOverride = 79 * simgpu.GB // weights fit, workspace won't
		e := New(cfg)
		if err := e.Load(p, []*simgpu.Context{ctx}, dev.Spec().HostLoadBW); !errors.Is(err, simgpu.ErrOOM) {
			t.Errorf("err = %v", err)
			return
		}
		if dev.Mem().Used() != 0 {
			t.Errorf("partial allocation leaked: %d", dev.Mem().Used())
		}
	})
	runEnv(t, env)
}

func TestWeightOverrideAndFootprint(t *testing.T) {
	cfg := LLaMa27B()
	// fp16 7B ≈ 13.5 GB.
	if w := cfg.WeightBytes(); w < 13*simgpu.GB || w > 14*simgpu.GB {
		t.Fatalf("weights = %d", w)
	}
	cfg.WeightBytesOverride = 7 * simgpu.GB
	if cfg.WeightBytes() != 7*simgpu.GB {
		t.Fatal("override ignored")
	}
	if cfg.FootprintBytes() != 7*simgpu.GB+cfg.WorkspaceBytes {
		t.Fatal("footprint math")
	}
}

func TestBatchedDecodeAmortizesWeights(t *testing.T) {
	throughput := func(batch int) float64 {
		env := devent.NewEnv()
		dev := a100(t, env, "gpu0")
		var tput float64
		env.Spawn("svc", func(p *devent.Proc) {
			cfg := LLaMa27B()
			cfg.BatchSize = batch
			ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
			e := New(cfg)
			if err := e.Load(p, []*simgpu.Context{ctx}, dev.Spec().HostLoadBW); err != nil {
				t.Error(err)
				return
			}
			start := p.Now()
			done := 0
			for done < 8 {
				cs, err := e.CompleteBatch(p, 20, 20)
				if err != nil {
					t.Error(err)
					return
				}
				done += len(cs)
			}
			tput = 8 / (p.Now() - start).Seconds()
		})
		runEnv(t, env)
		return tput
	}
	t1 := throughput(1)
	t4 := throughput(4)
	// One weight stream serves the whole batch: near-linear scaling.
	if t4 < 3*t1 {
		t.Fatalf("batch-4 throughput %.3f not ≥3× batch-1 %.3f", t4, t1)
	}
}

func TestCompleteBatchRequiresLoad(t *testing.T) {
	env := devent.NewEnv()
	a100(t, env, "gpu0")
	env.Spawn("svc", func(p *devent.Proc) {
		cfg := LLaMa27B()
		cfg.BatchSize = 2
		if _, err := New(cfg).CompleteBatch(p, 4, 4); !errors.Is(err, ErrNotLoaded) {
			t.Errorf("err = %v", err)
		}
	})
	runEnv(t, env)
}

func TestConfigBatchDefault(t *testing.T) {
	if (Config{}).Batch() != 1 || (Config{BatchSize: 3}).Batch() != 3 {
		t.Fatal("Batch() defaults wrong")
	}
}
