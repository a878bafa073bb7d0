package rightsize

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/simgpu"
)

func TestPackMPSBasics(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	plan, err := PackMPS(spec, []TenantDemand{
		{Name: "llama", SMs: 21, MemBytes: 18 * simgpu.GB},
		{Name: "resnet", SMs: 10, MemBytes: simgpu.GB},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 31 SMs of 108 need a 29% budget; llama's larger fractional
	// quota takes the remainder unit (20%), resnet's 9% still grants
	// its 10 SMs (ceil(9·1.08) = 10).
	if plan.Assignments[0].Percent != 20 || plan.Assignments[1].Percent != 9 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.TotalPercent != 29 || plan.Oversubscribed {
		t.Fatalf("plan = %+v", plan)
	}
}

// The rounding regression the largest-remainder fix locks in: three
// 36-SM tenants exactly fill a 108-SM A100, but per-tenant ceil used
// to report 34+34+34 = 102% and a false Oversubscribed flag.
func TestPackMPSNoFalseOversubscription(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	plan, err := PackMPS(spec, []TenantDemand{
		{Name: "a", SMs: 36, MemBytes: simgpu.GB},
		{Name: "b", SMs: 36, MemBytes: simgpu.GB},
		{Name: "c", SMs: 36, MemBytes: simgpu.GB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalPercent != 100 || plan.Oversubscribed {
		t.Fatalf("plan = %+v", plan)
	}
	for _, a := range plan.Assignments {
		if got := smsForPercent(spec.SMs, a.Percent); got < 36 {
			t.Fatalf("tenant %s: %d%% grants only %d SMs", a.Tenant, a.Percent, got)
		}
	}
}

// The truncation regression the equal-shares helper locks in: naive
// 100/n gave 3 processes 33+33+33 = 99%, stranding SMs. EqualShares
// must sum to exactly 100 for every realistic share count, with shares
// differing by at most one point.
func TestEqualSharesSumToExactly100(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	for n := 1; n <= 16; n++ {
		pcts, err := EqualShares(spec, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(pcts) != n {
			t.Fatalf("n=%d: got %d shares", n, len(pcts))
		}
		sum, min, max := 0, pcts[0], pcts[0]
		for _, p := range pcts {
			sum += p
			if p < min {
				min = p
			}
			if p > max {
				max = p
			}
		}
		if sum != 100 {
			t.Fatalf("n=%d: shares %v sum to %d, want exactly 100", n, pcts, sum)
		}
		if max-min > 1 {
			t.Fatalf("n=%d: shares %v differ by more than one point", n, pcts)
		}
	}
}

func TestEqualSharesThreeWaySplit(t *testing.T) {
	pcts, err := EqualShares(simgpu.A100SXM480GB(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// 108 SMs split 36/36/36; the remainder point goes to the first
	// share: 34+33+33, not the truncated 33+33+33.
	if len(pcts) != 3 || pcts[0] != 34 || pcts[1] != 33 || pcts[2] != 33 {
		t.Fatalf("pcts = %v, want [34 33 33]", pcts)
	}
}

func TestEqualSharesInvalidCounts(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	if _, err := EqualShares(spec, 0); !errors.Is(err, ErrUnpackable) {
		t.Fatalf("n=0: err = %v", err)
	}
	if _, err := EqualShares(spec, -1); !errors.Is(err, ErrUnpackable) {
		t.Fatalf("n=-1: err = %v", err)
	}
	if _, err := EqualShares(spec, spec.SMs+1); !errors.Is(err, ErrUnpackable) {
		t.Fatalf("n>SMs: err = %v", err)
	}
}

func TestPackMPSDuplicateTenant(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	_, err := PackMPS(spec, []TenantDemand{
		{Name: "x", SMs: 10, MemBytes: simgpu.GB},
		{Name: "x", SMs: 20, MemBytes: simgpu.GB},
	})
	if !errors.Is(err, ErrDuplicateTenant) {
		t.Fatalf("err = %v", err)
	}
}

// Property: every assignment's percentage grants at least the demanded
// SMs, TotalPercent is the exact sum, and a demand set that fits the
// device compute-wise is never flagged oversubscribed (for realistic
// tenant counts).
func TestQuickPackMPSSound(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		var demands []TenantDemand
		total := 0
		for i, r := range raw {
			sms := int(r%uint8(spec.SMs)) + 1
			total += sms
			demands = append(demands, TenantDemand{
				Name:     string(rune('a' + i)),
				SMs:      sms,
				MemBytes: simgpu.GB,
			})
		}
		plan, err := PackMPS(spec, demands)
		if err != nil {
			return false // these inputs are always packable
		}
		sum := 0
		for i, a := range plan.Assignments {
			if smsForPercent(spec.SMs, a.Percent) < demands[i].SMs {
				return false
			}
			sum += a.Percent
		}
		if sum != plan.TotalPercent {
			return false
		}
		if total <= spec.SMs && plan.Oversubscribed {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPackMPSOversubscription(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	plan, err := PackMPS(spec, []TenantDemand{
		{Name: "a", SMs: 80, MemBytes: simgpu.GB},
		{Name: "b", SMs: 80, MemBytes: simgpu.GB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Oversubscribed || plan.TotalPercent <= 100 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestPackMPSMemoryBound(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	_, err := PackMPS(spec, []TenantDemand{
		{Name: "a", SMs: 10, MemBytes: 50 * simgpu.GB},
		{Name: "b", SMs: 10, MemBytes: 50 * simgpu.GB},
	})
	if !errors.Is(err, ErrUnpackable) {
		t.Fatalf("err = %v", err)
	}
}

// TestPackersRejectBadDemands: PackMPS and PackMIG make the same demand
// check — SMs in 1..device SMs, non-negative memory, unique names.
func TestPackersRejectBadDemands(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	ok := TenantDemand{Name: "ok", SMs: 10, MemBytes: simgpu.GB}
	for _, tc := range []struct {
		name string
		bad  TenantDemand
		want error
	}{
		{"negative SMs", TenantDemand{Name: "a", SMs: -5, MemBytes: simgpu.GB}, ErrUnpackable},
		{"zero SMs", TenantDemand{Name: "a", SMs: 0}, ErrUnpackable},
		{"too many SMs", TenantDemand{Name: "a", SMs: spec.SMs + 1}, ErrUnpackable},
		{"negative memory", TenantDemand{Name: "a", SMs: 10, MemBytes: -1}, ErrUnpackable},
		{"duplicate name", ok, ErrDuplicateTenant},
	} {
		demands := []TenantDemand{ok, tc.bad}
		if _, err := PackMPS(spec, demands); !errors.Is(err, tc.want) {
			t.Errorf("%s: PackMPS err = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := PackMIG(spec, demands); !errors.Is(err, tc.want) {
			t.Errorf("%s: PackMIG err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestPackMPSInvalidSMs(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	if _, err := PackMPS(spec, []TenantDemand{{Name: "x", SMs: 0}}); !errors.Is(err, ErrUnpackable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := PackMPS(spec, []TenantDemand{{Name: "x", SMs: 500}}); !errors.Is(err, ErrUnpackable) {
		t.Fatalf("err = %v", err)
	}
}

func TestPackMIGPicksSmallestCoveringProfile(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	plan, err := PackMIG(spec, []TenantDemand{
		{Name: "llama", SMs: 21, MemBytes: 18 * simgpu.GB}, // needs 2g SMs but 20GB mem ⇒ 2g.20gb
		{Name: "resnet", SMs: 10, MemBytes: 1 * simgpu.GB}, // 1g.10gb
		{Name: "big", SMs: 50, MemBytes: 35 * simgpu.GB},   // 4g.40gb
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"llama": "2g.20gb", "resnet": "1g.10gb", "big": "4g.40gb"}
	for _, a := range plan.Assignments {
		if want[a.Tenant] != a.Profile {
			t.Fatalf("tenant %s got %s, want %s", a.Tenant, a.Profile, want[a.Tenant])
		}
	}
	// Largest first in the layout.
	if plan.Layout[0] != "4g.40gb" {
		t.Fatalf("layout = %v", plan.Layout)
	}
}

func TestPackMIGDetectsInfeasibleLayout(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	// Two 4g instances can never place together.
	_, err := PackMIG(spec, []TenantDemand{
		{Name: "a", SMs: 50, MemBytes: simgpu.GB},
		{Name: "b", SMs: 50, MemBytes: simgpu.GB},
	})
	if !errors.Is(err, ErrUnpackable) {
		t.Fatalf("err = %v", err)
	}
}

func TestPackMIGDemandTooLarge(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	if _, err := PackMIG(spec, []TenantDemand{{Name: "x", SMs: 99, MemBytes: 90 * simgpu.GB}}); !errors.Is(err, ErrUnpackable) {
		t.Fatalf("err = %v", err)
	}
}

func TestPackMIGNoMIGSupport(t *testing.T) {
	if _, err := PackMIG(simgpu.MI210(), []TenantDemand{{Name: "x", SMs: 10}}); !errors.Is(err, ErrUnpackable) {
		t.Fatalf("err = %v", err)
	}
}

// Property: whenever PackMIG succeeds, every tenant's profile covers
// its demand and the layout materializes on a real device.
func TestQuickPackMIGSound(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 4 {
			return true
		}
		var demands []TenantDemand
		for i, r := range raw {
			demands = append(demands, TenantDemand{
				Name:     string(rune('a' + i)),
				SMs:      int(r%60) + 1,
				MemBytes: int64(r%30+1) * simgpu.GB,
			})
		}
		plan, err := PackMIG(spec, demands)
		if err != nil {
			return true // infeasible inputs are allowed to fail
		}
		profByName := map[string]simgpu.MIGProfile{}
		for _, p := range simgpu.MIGProfilesFor(spec) {
			profByName[p.Name] = p
		}
		for i, a := range plan.Assignments {
			p := profByName[a.Profile]
			if p.Slices*spec.SMsPerSlice < demands[i].SMs || p.MemBytes < demands[i].MemBytes {
				return false
			}
		}
		return validateLayout(spec, plan.Layout) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
