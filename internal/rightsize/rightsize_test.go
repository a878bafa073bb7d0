package rightsize

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/devent"
	"repro/internal/llm"
	"repro/internal/simgpu"
)

func mkCurve(points ...Point) Curve { return Curve(points) }

func TestKneeFindsSaturation(t *testing.T) {
	c := mkCurve(
		Point{SMs: 8, Latency: 12 * time.Second},
		Point{SMs: 16, Latency: 6 * time.Second},
		Point{SMs: 22, Latency: 4700 * time.Millisecond},
		Point{SMs: 54, Latency: 4600 * time.Millisecond},
		Point{SMs: 108, Latency: 4550 * time.Millisecond},
	)
	knee, err := Knee(c, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if knee.SMs != 22 {
		t.Fatalf("knee = %+v", knee)
	}
}

func TestKneeEmptyAndTight(t *testing.T) {
	if _, err := Knee(nil, 0.05); err == nil {
		t.Fatal("empty curve accepted")
	}
	// With zero tolerance the knee is the minimum itself.
	c := mkCurve(Point{SMs: 10, Latency: 2 * time.Second}, Point{SMs: 20, Latency: time.Second})
	knee, _ := Knee(c, 0)
	if knee.SMs != 20 {
		t.Fatalf("knee = %+v", knee)
	}
}

// End-to-end: sweep the calibrated LLaMa-7B engine and recover the
// paper's ~20-SM saturation point.
func TestSweepLLaMaFindsTwentySMKnee(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	measure := func(pct int) (time.Duration, error) {
		env := devent.NewEnv()
		dev, err := simgpu.NewDevice(env, "gpu0", spec)
		if err != nil {
			return 0, err
		}
		if err := dev.SetPolicy(simgpu.PolicySpatial); err != nil {
			return 0, err
		}
		var lat time.Duration
		var runErr error
		env.Spawn("probe", func(p *devent.Proc) {
			ctx, err := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true, SMPercent: pct})
			if err != nil {
				runErr = err
				return
			}
			e := llm.New(llm.LLaMa27B())
			if err := e.Load(p, []*simgpu.Context{ctx}, spec.HostLoadBW); err != nil {
				runErr = err
				return
			}
			c, err := e.Complete(p, 20, 20)
			if err != nil {
				runErr = err
				return
			}
			lat = c.Latency
		})
		if err := env.Run(); err != nil {
			return 0, err
		}
		return lat, runErr
	}
	curve, err := Sweep(spec.SMs, []int{5, 10, 15, 19, 25, 50, 100}, measure)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recommend(spec, curve, 0.05, llm.LLaMa27B().FootprintBytes())
	if err != nil {
		t.Fatal(err)
	}
	// Knee at ≈20 SMs (the 19% point = 21 SMs).
	if rec.KneeSMs < 18 || rec.KneeSMs > 28 {
		t.Fatalf("knee = %d SMs", rec.KneeSMs)
	}
	if rec.MPSPercent < 17 || rec.MPSPercent > 26 {
		t.Fatalf("MPS%% = %d", rec.MPSPercent)
	}
	// Smallest MIG profile with ≥knee SMs and ≥17.5 GB: 2g.20gb
	// (28 SMs, 20 GB).
	if rec.MIGProfile != "2g.20gb" {
		t.Fatalf("MIG profile = %s", rec.MIGProfile)
	}
	if rec.TenantsPerGPU < 3 {
		t.Fatalf("tenants = %d", rec.TenantsPerGPU)
	}
}

// The recommended percentage is the smallest that grants the knee. A
// float ceil(knee/SMs·100) overshoots, e.g. 20 % for a 21-SM knee that
// 19 % already grants.
func TestRecommendSmallestGrantingPercent(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	for knee := 1; knee <= spec.SMs; knee++ {
		rec, err := Recommend(spec, mkCurve(Point{SMs: knee, Latency: time.Second}), 0.05, simgpu.GB)
		if err != nil {
			t.Fatal(err)
		}
		p := rec.MPSPercent
		if simgpu.PercentSMs(spec.SMs, p) < knee || simgpu.PercentSMs(spec.SMs, p-1) >= knee {
			t.Errorf("knee %d SMs: recommended %d%%, which grants %d (%d%% grants %d)",
				knee, p, simgpu.PercentSMs(spec.SMs, p), p-1, simgpu.PercentSMs(spec.SMs, p-1))
		}
	}
}

func TestSweepRejectsBadPercent(t *testing.T) {
	if _, err := Sweep(108, []int{0}, nil); err == nil {
		t.Fatal("pct 0 accepted")
	}
	if _, err := Sweep(108, []int{101}, nil); err == nil {
		t.Fatal("pct 101 accepted")
	}
}

func TestDemandSMsWeightedByDuration(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	perSM := spec.PerSMFLOPS()
	kernels := []simgpu.Kernel{
		// 90% of time in 20-SM kernels.
		{FLOPs: perSM * 20 * 9, MaxSMs: 20},
		// 10% in a fully parallel kernel.
		{FLOPs: perSM * 108, MaxSMs: 0},
	}
	if got := DemandSMs(spec, kernels, 0.85); got != 20 {
		t.Fatalf("demand = %d", got)
	}
	// Demanding full coverage pulls in the unbounded kernel.
	if got := DemandSMs(spec, kernels, 1.0); got != spec.SMs {
		t.Fatalf("full-coverage demand = %d", got)
	}
	if got := DemandSMs(spec, nil, 0.9); got != 1 {
		t.Fatalf("empty demand = %d", got)
	}
}

// Property: the knee never exceeds the largest budget and its latency
// is within tolerance of the minimum.
func TestQuickKneeInvariant(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var c Curve
		for i, r := range raw {
			c = append(c, Point{SMs: i + 1, Latency: time.Duration(r+1) * time.Millisecond})
		}
		knee, err := Knee(c, 0.1)
		if err != nil {
			return false
		}
		if knee.SMs < 1 || knee.SMs > len(raw) {
			return false
		}
		return float64(knee.Latency) <= 1.1*float64(c.Min())+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
