package vision

import (
	"errors"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/simgpu"
)

func setup(t *testing.T) (*devent.Env, *simgpu.Device) {
	t.Helper()
	env := devent.NewEnv()
	dev, err := simgpu.NewDevice(env, "gpu0", simgpu.A100SXM480GB())
	if err != nil {
		t.Fatal(err)
	}
	return env, dev
}

func TestInferBatchOneIsFast(t *testing.T) {
	env, dev := setup(t)
	var lat time.Duration
	env.Spawn("svc", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		e := New(Config{Model: models.ResNet50()})
		if err := e.Load(p, ctx, dev.Spec().HostLoadBW); err != nil {
			t.Error(err)
			return
		}
		l, err := e.Infer(p)
		if err != nil {
			t.Error(err)
			return
		}
		lat = l
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// ~5 ms preprocess + a few ms of GPU: well under 15 ms total, the
	// real-time envelope the paper's §6 mentions (<100 ms budgets).
	if lat < 5*time.Millisecond || lat > 15*time.Millisecond {
		t.Fatalf("latency = %v", lat)
	}
}

func TestBatchIncreasesLatencyButHelpsThroughput(t *testing.T) {
	env, dev := setup(t)
	var lat1, lat32 time.Duration
	env.Spawn("svc", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		e1 := New(Config{Model: models.ResNet50(), Batch: 1})
		if err := e1.Load(p, ctx, dev.Spec().HostLoadBW); err != nil {
			t.Error(err)
			return
		}
		l, _ := e1.Infer(p)
		lat1 = l
		e1.Unload()
		e32 := New(Config{Model: models.ResNet50(), Batch: 32})
		if err := e32.Load(p, ctx, dev.Spec().HostLoadBW); err != nil {
			t.Error(err)
			return
		}
		l, _ = e32.Infer(p)
		lat32 = l
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if lat32 <= lat1 {
		t.Fatalf("batch-32 request %v not slower than batch-1 %v", lat32, lat1)
	}
	// But far sublinear: per-image time shrinks.
	if lat32 >= 32*lat1/4 {
		t.Fatalf("batching not amortizing: b1=%v b32=%v", lat1, lat32)
	}
}

func TestSmallPartitionBarelyHurtsBatchOne(t *testing.T) {
	measure := func(pct int) time.Duration {
		env, dev := setup(t)
		if err := dev.SetPolicy(simgpu.PolicySpatial); err != nil {
			t.Fatal(err)
		}
		var mean time.Duration
		env.Spawn("svc", func(p *devent.Proc) {
			ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true, SMPercent: pct})
			e := New(Config{Model: models.ResNet50()})
			if err := e.Load(p, ctx, dev.Spec().HostLoadBW); err != nil {
				t.Error(err)
				return
			}
			var lat metrics.Durations
			for n := 0; n < 10; n++ {
				l, err := e.Infer(p)
				if err != nil {
					t.Error(err)
					return
				}
				lat.Add(l)
			}
			mean = lat.Mean()
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return mean
	}
	full := measure(0)
	quarter := measure(25)
	// A quarter of an A100 costs batch-1 ResNet well under 25%.
	if float64(quarter) > 1.25*float64(full) {
		t.Fatalf("25%% partition latency %v vs full %v", quarter, full)
	}
}

func TestInferBeforeLoad(t *testing.T) {
	env, _ := setup(t)
	env.Spawn("svc", func(p *devent.Proc) {
		e := New(Config{Model: models.ResNet50()})
		if _, err := e.Infer(p); !errors.Is(err, ErrNotLoaded) {
			t.Errorf("err = %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnloadFreesWeights(t *testing.T) {
	env, dev := setup(t)
	env.Spawn("svc", func(p *devent.Proc) {
		ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true})
		e := New(Config{Model: models.ResNet50()})
		e.Load(p, ctx, dev.Spec().HostLoadBW)
		if dev.Mem().Used() == 0 {
			t.Error("weights not allocated")
		}
		e.Unload()
		if dev.Mem().Used() != 0 {
			t.Errorf("leak: %d", dev.Mem().Used())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWeightBytes(t *testing.T) {
	c := Config{Model: models.ResNet50()}
	// 25.557M params × 4 bytes ≈ 102 MB.
	if w := c.WeightBytes(); w != 25_557_032*4 {
		t.Fatalf("weights = %d", w)
	}
}
