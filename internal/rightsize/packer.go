package rightsize

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/devent"
	"repro/internal/simgpu"
)

// ErrUnpackable is returned when tenant demands cannot be satisfied
// on one device.
var ErrUnpackable = errors.New("rightsize: demands do not fit the device")

// ErrDuplicateTenant is returned when two demands carry the same
// tenant name: plans are keyed by name, so duplicates would silently
// shadow each other.
var ErrDuplicateTenant = errors.New("rightsize: duplicate tenant name")

// TenantDemand is one workload's right-sized requirement (typically
// from Recommend): SMs at the latency knee plus memory footprint.
type TenantDemand struct {
	Name     string
	SMs      int
	MemBytes int64
}

// MPSAssignment is one tenant's GPU-percentage share.
type MPSAssignment struct {
	Tenant  string
	Percent int
}

// MPSPlan is a percentage partitioning of one device.
type MPSPlan struct {
	Assignments []MPSAssignment
	// TotalPercent may exceed 100: MPS allows oversubscription, the
	// hardware then time-multiplexes (flagged so operators can see
	// it).
	TotalPercent   int
	Oversubscribed bool
}

// PackMPS apportions GPU percentages across tenants by SM demand.
// The percentage budget is the smallest total granting the aggregate
// demand — ceil(100·ΣSMs/deviceSMs) — apportioned by the largest-
// remainder method (ties broken by input order), so per-tenant
// rounding cannot inflate TotalPercent into a false Oversubscribed
// flag. Each tenant is then raised, if needed, to the minimal
// percentage whose SM grant covers its own demand (every percentage
// grants ceil(pct·SMs/100) SMs, so the floor of a fractional quota can
// fall one SM short). Memory is checked against the single shared pool
// (MPS has no isolation, but capacity is still physical).
func PackMPS(spec simgpu.DeviceSpec, demands []TenantDemand) (*MPSPlan, error) {
	if err := checkDemands(spec, demands); err != nil {
		return nil, err
	}
	var mem int64
	totalSMs := 0
	for _, d := range demands {
		mem += d.MemBytes
		totalSMs += d.SMs
	}
	if mem > spec.MemBytes {
		return nil, fmt.Errorf("%w: memory %d exceeds %d", ErrUnpackable, mem, spec.MemBytes)
	}
	// Largest-remainder apportionment of the aggregate budget.
	budget := int(math.Ceil(float64(totalSMs) / float64(spec.SMs) * 100))
	pcts := make([]int, len(demands))
	fracs := make([]float64, len(demands))
	rest := budget
	for i, d := range demands {
		quota := float64(d.SMs) / float64(spec.SMs) * 100
		pcts[i] = int(math.Floor(quota))
		fracs[i] = quota - float64(pcts[i])
		rest -= pcts[i]
	}
	order := make([]int, len(demands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return fracs[order[a]] > fracs[order[b]] })
	for k := 0; k < rest && k < len(order); k++ {
		pcts[order[k]]++
	}
	plan := &MPSPlan{}
	for i, d := range demands {
		if min := MinGrantingPercent(spec.SMs, d.SMs); pcts[i] < min {
			pcts[i] = min
		}
		plan.Assignments = append(plan.Assignments, MPSAssignment{Tenant: d.Name, Percent: pcts[i]})
		plan.TotalPercent += pcts[i]
	}
	plan.Oversubscribed = plan.TotalPercent > 100
	return plan, nil
}

// checkDemands is the input check both packers make: every tenant wants
// 1..device SMs and a non-negative memory size, and names are unique.
func checkDemands(spec simgpu.DeviceSpec, demands []TenantDemand) error {
	seen := make(map[string]bool, len(demands))
	for _, d := range demands {
		if d.SMs <= 0 || d.SMs > spec.SMs {
			return fmt.Errorf("%w: tenant %q wants %d SMs of %d", ErrUnpackable, d.Name, d.SMs, spec.SMs)
		}
		if d.MemBytes < 0 {
			return fmt.Errorf("%w: tenant %q wants %d bytes of memory", ErrUnpackable, d.Name, d.MemBytes)
		}
		if seen[d.Name] {
			return fmt.Errorf("%w: %q", ErrDuplicateTenant, d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// EqualShares splits a device into n equal MPS percentage shares via
// PackMPS's largest-remainder apportionment, so the shares sum to
// exactly 100 for any share count small enough that a percent still
// grants at least one SM. Naive truncation (100/n) strands up to n-1 percent —
// three processes would get 33+33+33 = 99%, leaving SMs idle. Here the
// device's SMs are apportioned first (base SMs/n each, the first
// SMs mod n tenants get one more), so for a 108-SM A100 three
// processes get 34/33/33 and five get 20×5.
func EqualShares(spec simgpu.DeviceSpec, n int) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d shares requested", ErrUnpackable, n)
	}
	if n > spec.SMs {
		return nil, fmt.Errorf("%w: %d shares exceed %d SMs", ErrUnpackable, n, spec.SMs)
	}
	demands := make([]TenantDemand, n)
	base, extra := spec.SMs/n, spec.SMs%n
	for i := range demands {
		sms := base
		if i < extra {
			sms++
		}
		demands[i] = TenantDemand{Name: fmt.Sprintf("share%d", i), SMs: sms}
	}
	plan, err := PackMPS(spec, demands)
	if err != nil {
		return nil, err
	}
	pcts := make([]int, n)
	for i, a := range plan.Assignments {
		pcts[i] = a.Percent
	}
	return pcts, nil
}

// MinGrantingPercent is the smallest percentage whose SM grant
// (ceil(pct·deviceSMs/100)) covers sms. Exported for the fleet packer,
// which computes incremental per-tenant grants with the same rounding
// PackMPS uses, so single-device plans and fleet placements agree on
// what a percentage delivers.
func MinGrantingPercent(deviceSMs, sms int) int {
	if sms >= deviceSMs {
		return 100
	}
	return (sms-1)*100/deviceSMs + 1
}

// MIGAssignment is one tenant's MIG profile.
type MIGAssignment struct {
	Tenant  string
	Profile string
}

// MIGPlan is a placement-validated instance layout.
type MIGPlan struct {
	// Assignments pair tenants with profiles, in input order.
	Assignments []MIGAssignment
	// Layout is the profile list in the creation order that places
	// successfully (largest first).
	Layout []string
}

// PackMIG picks, for every tenant, the smallest profile covering its
// SM and memory demand, then validates that the resulting layout
// actually places on the device (slice and memory-slice constraints
// included), using the simulator's own placement engine. Demands are
// checked as PackMPS checks them.
func PackMIG(spec simgpu.DeviceSpec, demands []TenantDemand) (*MIGPlan, error) {
	if err := checkDemands(spec, demands); err != nil {
		return nil, err
	}
	profiles := simgpu.MIGProfilesFor(spec)
	if len(profiles) == 0 {
		return nil, fmt.Errorf("%w: %s has no MIG support", ErrUnpackable, spec.Name)
	}
	plan := &MIGPlan{}
	type sized struct {
		profile string
		slices  int
	}
	var chosen []sized
	for _, d := range demands {
		found := ""
		sl := 0
		for _, p := range profiles { // ordered small → large
			if p.Slices*spec.SMsPerSlice >= d.SMs && p.MemBytes >= d.MemBytes {
				found, sl = p.Name, p.Slices
				break
			}
		}
		if found == "" {
			return nil, fmt.Errorf("%w: no profile covers tenant %q (%d SMs, %d bytes)",
				ErrUnpackable, d.Name, d.SMs, d.MemBytes)
		}
		plan.Assignments = append(plan.Assignments, MIGAssignment{Tenant: d.Name, Profile: found})
		chosen = append(chosen, sized{found, sl})
	}
	// Place largest-first: the A100 placement table is feasibility-
	// monotone under this order for any satisfiable multiset.
	sort.SliceStable(chosen, func(i, j int) bool { return chosen[i].slices > chosen[j].slices })
	for _, c := range chosen {
		plan.Layout = append(plan.Layout, c.profile)
	}
	if err := validateLayout(spec, plan.Layout); err != nil {
		return nil, err
	}
	return plan, nil
}

// validateLayout materializes the layout on a throwaway device.
func validateLayout(spec simgpu.DeviceSpec, layout []string) error {
	env := devent.NewEnv()
	dev, err := simgpu.NewDevice(env, "probe", spec)
	if err != nil {
		return err
	}
	if err := dev.EnableMIG(nil); err != nil {
		return err
	}
	for _, prof := range layout {
		if _, err := dev.CreateInstance(prof); err != nil {
			return fmt.Errorf("%w: layout %v: %v", ErrUnpackable, layout, err)
		}
	}
	return nil
}
