package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	randv2 "math/rand/v2"
	"reflect"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/obs"
	"repro/internal/rightsize"
	"repro/internal/simgpu"
)

// mixedInventory is the property suite's fleet: an A100-80GB/40GB mix.
func mixedInventory(n80, n40 int) Inventory {
	specs := make([]simgpu.DeviceSpec, 0, n80+n40)
	for i := 0; i < n80; i++ {
		specs = append(specs, simgpu.A100SXM480GB())
	}
	for i := 0; i < n40; i++ {
		specs = append(specs, simgpu.A100SXM440GB())
	}
	return NewInventory(specs...)
}

// randomDemand draws from the scenario's demand classes: mostly
// MIG-coverable tenants plus the occasional oversize demand that only
// whole-GPU MPS can serve.
func randomDemand(rng *rand.Rand, name string) Demand {
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // small: fits a 1g/2g slice
		return Demand{Tenant: name, SMs: 1 + rng.Intn(28), MemBytes: int64(1+rng.Intn(10)) * simgpu.GB}
	case 4, 5, 6: // medium: 2g–4g
		return Demand{Tenant: name, SMs: 20 + rng.Intn(36), MemBytes: int64(5+rng.Intn(30)) * simgpu.GB}
	case 7, 8: // large: 4g–7g
		return Demand{Tenant: name, SMs: 50 + rng.Intn(48), MemBytes: int64(10+rng.Intn(60)) * simgpu.GB}
	default: // oversize: more SMs than the 98 the MIG lattice exposes
		return Demand{Tenant: name, SMs: 99 + rng.Intn(10), MemBytes: int64(1+rng.Intn(40)) * simgpu.GB}
	}
}

// TestPropertyPlaceInvariants drives seeded random demand streams into
// mixed fleets and checks, after every operation, the full structural
// invariant set: valid MIG lattice with no overlap, per-domain MPS
// shares ≤100%, demand-met for every placed tenant, and consistent
// bookkeeping. Rejections must be typed ErrUnplaceable.
func TestPropertyPlaceInvariants(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c, err := New(Config{Inventory: mixedInventory(3, 2)})
			if err != nil {
				t.Fatal(err)
			}
			placed := 0
			for i := 0; i < 120; i++ {
				d := randomDemand(rng, fmt.Sprintf("t%d", i))
				_, err := c.Place(d)
				switch {
				case err == nil:
					placed++
				case errors.Is(err, ErrUnplaceable):
					// full fleet: acceptable, but state must be untouched
				default:
					t.Fatalf("op %d: unexpected error class: %v", i, err)
				}
				if verr := c.Validate(); verr != nil {
					t.Fatalf("op %d (place %s): invariants violated: %v", i, d.Tenant, verr)
				}
			}
			if placed == 0 {
				t.Fatal("property run placed nothing; demand generator is broken")
			}
			// Segment grants really cover the demands (belt to Validate's
			// suspenders, via the public accessor).
			for _, pl := range c.Placements() {
				if pl.Segment.SMs < pl.Demand.SMs || pl.Segment.MemBytes < pl.Demand.MemBytes {
					t.Fatalf("tenant %q under-granted: %+v", pl.Demand.Tenant, pl)
				}
			}
		})
	}
}

// TestPropertyChurn alternates seeded arrivals and departures and
// checks the churn-consistency invariant: the incremental state either
// equals a from-scratch solve of the survivors, or is explicitly
// flagged — as fragmented-worse with a gap within FragGapBound, or as
// ScratchInfeasible (the greedy replay can dead-end where the
// incremental path, shaped by since-departed tenants, did not; the
// incremental state must then stand and stay valid).
func TestPropertyChurn(t *testing.T) {
	feasible := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(Config{Inventory: mixedInventory(2, 2)})
		if err != nil {
			t.Fatal(err)
		}
		var live []string
		next := 0
		for op := 0; op < 200; op++ {
			if len(live) == 0 || rng.Intn(3) != 0 {
				name := fmt.Sprintf("t%d", next)
				next++
				if _, err := c.Place(randomDemand(rng, name)); err == nil {
					live = append(live, name)
				} else if !errors.Is(err, ErrUnplaceable) {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			} else {
				i := rng.Intn(len(live))
				if err := c.Evict(live[i]); err != nil {
					t.Fatalf("seed %d op %d: evict: %v", seed, op, err)
				}
				live = append(live[:i], live[i+1:]...)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		rep := c.Drift()
		if rep.ScratchInfeasible {
			// Explicitly flagged; the incremental state must survive a
			// rebalance attempt untouched.
			got := c.Rebalance()
			if got.Applied {
				t.Fatalf("seed %d: applied a rebalance with no feasible scratch solve", seed)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("seed %d: after no-op rebalance: %v", seed, err)
			}
			continue
		}
		feasible++
		if rep.Equal && rep.Gap != 0 {
			t.Fatalf("seed %d: equal placements but gap %v", seed, rep.Gap)
		}
		if math.Abs(rep.Gap) > FragGapBound {
			t.Fatalf("seed %d: churn gap %v exceeds bound %v (before %v, scratch %v)",
				seed, rep.Gap, FragGapBound, rep.Before, rep.Scratch)
		}
		// Rebalance must leave a valid cluster whose fragmentation is
		// min(incremental, scratch).
		want := math.Min(rep.Before, rep.Scratch)
		got := c.Rebalance()
		if err := c.Validate(); err != nil {
			t.Fatalf("seed %d: after rebalance: %v", seed, err)
		}
		if f := c.Fragmentation().Fleet; math.Abs(f-want) > 1e-9 {
			t.Fatalf("seed %d: rebalanced fragmentation %v, want %v (applied=%v)", seed, f, want, got.Applied)
		}
	}
	if feasible == 0 {
		t.Fatal("every seed hit ScratchInfeasible; the gap property was never exercised")
	}
}

// TestPropertyDeterministic re-runs the same seeded operation sequence
// on two independent clusters and requires identical placements — the
// packer has no hidden iteration-order or map dependence.
func TestPropertyDeterministic(t *testing.T) {
	run := func(seed int64) []Placement {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(Config{Inventory: mixedInventory(2, 1)})
		if err != nil {
			t.Fatal(err)
		}
		var live []string
		for i := 0; i < 150; i++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				j := rng.Intn(len(live))
				if err := c.Evict(live[j]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:j], live[j+1:]...)
				continue
			}
			name := fmt.Sprintf("t%d", i)
			if _, err := c.Place(randomDemand(rng, name)); err == nil {
				live = append(live, name)
			}
		}
		return c.Placements()
	}
	for seed := int64(1); seed <= 4; seed++ {
		a, b := run(seed), run(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: placements differ between identical runs", seed)
		}
	}
}

// TestHardShapes is the table of known-hard placement shapes.
func TestHardShapes(t *testing.T) {
	gb := simgpu.GB
	t.Run("seven-slice-lattice", func(t *testing.T) {
		// Seven 1-slice tenants fill the whole A100 lattice.
		c, _ := New(Config{Inventory: mixedInventory(1, 0)})
		for i := 0; i < 7; i++ {
			pl, err := c.Place(Demand{Tenant: fmt.Sprintf("t%d", i), SMs: 10, MemBytes: 5 * gb})
			if err != nil {
				t.Fatalf("tenant %d: %v", i, err)
			}
			if pl.Segment.Kind != SegMIG {
				t.Fatalf("tenant %d got %s, want mig", i, pl.Segment.Kind)
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("memory-slice-pressure", func(t *testing.T) {
		// Two 3g.40gb instances eat 8 memory slices; slice 3 is free but
		// a new 1g instance has no memory slice left — the packer must
		// co-locate the third tenant inside an existing instance instead.
		c, _ := New(Config{Inventory: mixedInventory(1, 0)})
		for i := 0; i < 2; i++ {
			if _, err := c.Place(Demand{Tenant: fmt.Sprintf("big%d", i), SMs: 30, MemBytes: 35 * gb}); err != nil {
				t.Fatal(err)
			}
		}
		pl, err := c.Place(Demand{Tenant: "small", SMs: 5, MemBytes: 2 * gb})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Segment.Kind != SegMIG || pl.Segment.Profile != "3g.40gb" {
			t.Fatalf("small tenant should share a 3g instance, got %+v", pl.Segment)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("mixed-inventory-tight-fit", func(t *testing.T) {
		// 30 GB fits a 3g.40gb on the 80 GB part but needs the whole
		// 7g.40gb on the 40 GB part; the tighter fit must win.
		c, _ := New(Config{Inventory: mixedInventory(1, 1)})
		pl, err := c.Place(Demand{Tenant: "t", SMs: 30, MemBytes: 30 * gb})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Segment.Profile != "3g.40gb" {
			t.Fatalf("want 3g.40gb on the 80GB part, got %+v", pl.Segment)
		}
	})
	t.Run("oversize-falls-back-to-mps", func(t *testing.T) {
		// 99 SMs exceeds the 98 the MIG lattice exposes; only whole-GPU
		// MPS can serve it.
		c, _ := New(Config{Inventory: mixedInventory(1, 0)})
		pl, err := c.Place(Demand{Tenant: "t", SMs: 99})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Segment.Kind != SegMPS || pl.Segment.SMs < 99 {
			t.Fatalf("want whole-GPU MPS granting ≥99 SMs, got %+v", pl.Segment)
		}
	})
	t.Run("unplaceable-typed-error", func(t *testing.T) {
		c, _ := New(Config{Inventory: mixedInventory(1, 1)})
		_, err := c.Place(Demand{Tenant: "t", SMs: 10, MemBytes: 100 * gb})
		if !errors.Is(err, ErrUnplaceable) {
			t.Fatalf("want ErrUnplaceable, got %v", err)
		}
		_, err = c.Place(Demand{Tenant: "t", SMs: 500})
		if !errors.Is(err, ErrUnplaceable) {
			t.Fatalf("want ErrUnplaceable for oversize SMs, got %v", err)
		}
	})
	t.Run("duplicate-and-bad-demands", func(t *testing.T) {
		c, _ := New(Config{Inventory: mixedInventory(1, 0)})
		if _, err := c.Place(Demand{Tenant: "t", SMs: 10}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Place(Demand{Tenant: "t", SMs: 10}); !errors.Is(err, ErrDuplicateTenant) {
			t.Fatalf("want ErrDuplicateTenant, got %v", err)
		}
		for _, bad := range []Demand{{Tenant: "", SMs: 1}, {Tenant: "x", SMs: 0}, {Tenant: "x", SMs: 1, MemBytes: -1}} {
			if _, err := c.Place(bad); !errors.Is(err, ErrBadDemand) {
				t.Fatalf("demand %+v: want ErrBadDemand, got %v", bad, err)
			}
		}
	})
}

// TestEvictAndMigrate pins the lifecycle semantics: evicting the last
// tenant empties the GPU, unknown tenants are typed errors, and
// migration re-places onto the least-fragmenting segment.
func TestEvictAndMigrate(t *testing.T) {
	c, _ := New(Config{Inventory: mixedInventory(1, 0)})
	if err := c.Evict("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("want ErrUnknownTenant, got %v", err)
	}
	if _, err := c.Migrate("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("want ErrUnknownTenant, got %v", err)
	}
	if _, err := c.Place(Demand{Tenant: "a", SMs: 10, MemBytes: simgpu.GB}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(Demand{Tenant: "b", SMs: 10, MemBytes: simgpu.GB}); err != nil {
		t.Fatal(err)
	}
	if err := c.Evict("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Evict("b"); err != nil {
		t.Fatal(err)
	}
	if c.Tenants() != 0 {
		t.Fatalf("tenants after full eviction: %d", c.Tenants())
	}
	if f := c.Fragmentation().Fleet; f != 0 {
		t.Fatalf("empty fleet fragmentation %v, want 0", f)
	}
	// Migrate: a survivor sharing a large instance moves to a tight one
	// once the fleet has room.
	if _, err := c.Place(Demand{Tenant: "big", SMs: 90, MemBytes: 60 * simgpu.GB}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(Demand{Tenant: "small", SMs: 5, MemBytes: simgpu.GB}); err != nil {
		t.Fatal(err)
	}
	if err := c.Evict("big"); err != nil {
		t.Fatal(err)
	}
	pl, err := c.Migrate("small")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Segment.Profile != "1g.10gb" {
		t.Fatalf("migrated small tenant should own a 1g slice, got %+v", pl.Segment)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsRegistered checks the obs wiring: mutations move the
// fleet counters and gauges.
func TestMetricsRegistered(t *testing.T) {
	col := obs.New(devent.NewEnv())
	c, err := New(Config{Inventory: mixedInventory(1, 1), Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(Demand{Tenant: "a", SMs: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(Demand{Tenant: "b", SMs: 2000}); !errors.Is(err, ErrUnplaceable) {
		t.Fatal("oversize demand should be rejected")
	}
	if err := c.Evict("a"); err != nil {
		t.Fatal(err)
	}
	m := col.Metrics()
	if v := m.Counter("fleet_place_total", obs.L("status", "placed")).Value(); v != 1 {
		t.Fatalf("placed counter %v", v)
	}
	if v := m.Counter("fleet_place_total", obs.L("status", "rejected")).Value(); v != 1 {
		t.Fatalf("rejected counter %v", v)
	}
	if v := m.Counter("fleet_evict_total").Value(); v != 1 {
		t.Fatalf("evict counter %v", v)
	}
	if v := m.Gauge("fleet_gpus", obs.L("mode", "empty")).Value(); v != 2 {
		t.Fatalf("empty-mode gauge %v, want 2", v)
	}
}

// TestParseDemandsRoundTrip covers the spec parser both ways.
func TestParseDemandsRoundTrip(t *testing.T) {
	ds, err := ParseDemands("a:10:5;b:99;c:3:0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []Demand{
		{Tenant: "a", SMs: 10, MemBytes: 5e9},
		{Tenant: "b", SMs: 99},
		{Tenant: "c", SMs: 3, MemBytes: 5e8},
	}
	if !reflect.DeepEqual(ds, want) {
		t.Fatalf("parsed %+v", ds)
	}
	back, err := ParseDemands(FormatDemands(ds))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ds) {
		t.Fatalf("round trip diverged: %+v", back)
	}
	for _, bad := range []string{"", ";", "a", "a:x", "a:0", "a:5:x", "a:5;a:6", ":5", "a:5:-1", "a:5:2e9"} {
		if _, err := ParseDemands(bad); err == nil {
			t.Fatalf("spec %q should not parse", bad)
		}
	}
}

// TestInventoryValidate covers inventory error paths.
func TestInventoryValidate(t *testing.T) {
	if err := (Inventory{}).Validate(); err == nil {
		t.Fatal("empty inventory should fail")
	}
	dup := Inventory{{ID: "g", Spec: simgpu.A100SXM480GB()}, {ID: "g", Spec: simgpu.A100SXM440GB()}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate IDs should fail")
	}
	if _, err := New(Config{Inventory: Inventory{{ID: "", Spec: simgpu.A100SXM480GB()}}}); err == nil {
		t.Fatal("missing ID should fail")
	}
}

// bestCandidateRef is the reference the packer's candidate search must
// match: the original mutate-and-revert probe. It probes every GPU,
// empty ones included, by applying each tentative segment, rescoring
// the whole GPU from its state with gpuFrag, and reverting — no cached
// fragmentation, no evaluation without mutation, no skipped twins.
func (c *Cluster) bestCandidateRef(d Demand) (candidate, bool) {
	var best candidate
	found := false
	consider := func(cand candidate) {
		if !found || cand.better(best) {
			best, found = cand, true
		}
	}
	for _, g := range c.gpus {
		migCandidatesRef(g, d, consider)
	}
	if found {
		return best, true
	}
	for _, g := range c.gpus {
		mpsCandidateRef(g, d, consider)
	}
	return best, found
}

func migCandidatesRef(g *gpuState, d Demand, consider func(candidate)) {
	spec := g.gpu.Spec
	if spec.MIGSlices == 0 || g.mode == modeMPS {
		return
	}
	before := gpuFrag(g)
	for _, in := range g.insts {
		instSMs := in.sms(spec)
		if d.SMs > instSMs {
			continue
		}
		pct := rightsize.MinGrantingPercent(instSMs, d.SMs)
		if pct > 100-in.usedPct() {
			continue
		}
		if d.MemBytes > in.prof.MemBytes-in.usedMem() {
			continue
		}
		sh := &share{tenant: d.Tenant, pct: pct, sms: pctGrant(instSMs, pct), mem: d.MemBytes}
		in.shares = append(in.shares, sh)
		delta := gpuFrag(g) - before
		in.shares = in.shares[:len(in.shares)-1]
		consider(candidate{
			g: g, kind: SegMIG, inst: in, prof: in.prof, start: in.start,
			pct: pct, sms: sh.sms,
			delta: delta, waste: sh.sms - d.SMs,
			wasEmpty: g.mode == modeEmpty,
		})
	}
	prof, ok := coveringProfile(spec, g.profiles, d)
	if !ok {
		return
	}
	occupied, memUsed := g.occupancy()
	if memUsed+prof.MemSlices > spec.MemSlices {
		return
	}
	instSMs := prof.Slices * spec.SMsPerSlice
	pct := rightsize.MinGrantingPercent(instSMs, d.SMs)
	for _, start := range simgpu.MIGStarts(prof.Slices) {
		if start+prof.Slices > spec.MIGSlices {
			continue
		}
		free := true
		for s := start; s < start+prof.Slices; s++ {
			if occupied&(1<<s) != 0 {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		in := &instance{prof: prof, start: start,
			shares: []*share{{tenant: d.Tenant, pct: pct, sms: pctGrant(instSMs, pct), mem: d.MemBytes}}}
		g.insts = append(g.insts, in)
		wasMode := g.mode
		g.mode = modeMIG
		delta := gpuFrag(g) - before
		g.mode = wasMode
		g.insts = g.insts[:len(g.insts)-1]
		consider(candidate{
			g: g, kind: SegMIG, prof: prof, start: start,
			pct: pct, sms: in.shares[0].sms,
			delta: delta, waste: in.shares[0].sms - d.SMs,
			memWaste: prof.MemBytes - d.MemBytes,
			wasEmpty: wasMode == modeEmpty,
		})
	}
}

func mpsCandidateRef(g *gpuState, d Demand, consider func(candidate)) {
	spec := g.gpu.Spec
	if g.mode == modeMIG {
		return
	}
	if d.SMs > spec.SMs || d.MemBytes > spec.MemBytes {
		return
	}
	pct := rightsize.MinGrantingPercent(spec.SMs, d.SMs)
	if pct > 100-g.usedPct() {
		return
	}
	if d.MemBytes > spec.MemBytes-g.usedMem() {
		return
	}
	before := gpuFrag(g)
	sh := &share{tenant: d.Tenant, pct: pct, sms: pctGrant(spec.SMs, pct), mem: d.MemBytes}
	g.shares = append(g.shares, sh)
	wasMode := g.mode
	g.mode = modeMPS
	delta := gpuFrag(g) - before
	g.mode = wasMode
	g.shares = g.shares[:len(g.shares)-1]
	consider(candidate{
		g: g, kind: SegMPS,
		pct: pct, sms: sh.sms,
		delta: delta, waste: sh.sms - d.SMs,
		wasEmpty: wasMode == modeEmpty,
	})
}

// checkCandidate requires the packer's search and the reference to
// choose the same segment for d, with a bit-identical fragmentation
// delta.
func checkCandidate(t testing.TB, c *Cluster, d Demand) {
	t.Helper()
	got, gotOK := c.bestCandidate(d)
	want, wantOK := c.bestCandidateRef(d)
	if gotOK != wantOK {
		t.Fatalf("demand %+v: packer found=%v, reference found=%v", d, gotOK, wantOK)
	}
	if got != want || math.Float64bits(got.delta) != math.Float64bits(want.delta) {
		t.Fatalf("demand %+v:\npacker    %s\nreference %s", d, describe(got), describe(want))
	}
}

func describe(c candidate) string {
	return fmt.Sprintf("%s %s %s@%d share=%v %d%% (%d SMs) delta=%v (%#x)",
		c.g.gpu.ID, c.kind, c.prof.Name, c.start, c.inst != nil, c.pct, c.sms, c.delta, math.Float64bits(c.delta))
}

// randomInventory mixes MIG-capable A100-80GB and -40GB parts with
// MPS-only MI210s in random order, so empty GPUs of different specs
// interleave.
func randomInventory(rnd *randv2.Rand, n int) Inventory {
	specs := make([]simgpu.DeviceSpec, n)
	for i := range specs {
		switch rnd.IntN(5) {
		case 0, 1:
			specs[i] = simgpu.A100SXM480GB()
		case 2, 3:
			specs[i] = simgpu.A100SXM440GB()
		default:
			specs[i] = simgpu.MI210()
		}
	}
	return NewInventory(specs...)
}

// TestPackerMatchesReference drives random place, evict and Rebalance
// sequences on mixed inventories of 3–40 GPUs and, before every
// placement and after every operation, requires the packer's choice to
// equal the reference's. Validate after every operation also checks the
// cached fragmentation. The seeds are logged so a failure replays
// exactly.
func TestPackerMatchesReference(t *testing.T) {
	seed1 := uint64(time.Now().UnixNano())
	seed2 := bits.Reverse64(uint64(time.Now().UnixNano()))
	t.Logf("seed1 = %d, seed2 = %d", seed1, seed2)
	rnd := randv2.New(randv2.NewPCG(seed1, seed2))
	for trial := 0; trial < 40; trial++ {
		c, err := New(Config{Inventory: randomInventory(rnd, 3+rnd.IntN(38))})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(rnd.Int64()))
		var live []string
		for op := 0; op < 200; op++ {
			switch r := rnd.IntN(20); {
			case r == 0:
				c.Rebalance()
			case r < 8 && len(live) > 0:
				i := rnd.IntN(len(live))
				if err := c.Evict(live[i]); err != nil {
					t.Fatalf("trial %d op %d: %v", trial, op, err)
				}
				live = append(live[:i], live[i+1:]...)
			default:
				d := randomDemand(rng, fmt.Sprintf("t%d", op))
				checkCandidate(t, c, d)
				if _, err := c.Place(d); err == nil {
					live = append(live, d.Tenant)
				} else if !errors.Is(err, ErrUnplaceable) {
					t.Fatalf("trial %d op %d: %v", trial, op, err)
				}
			}
			checkCandidate(t, c, randomDemand(rng, "probe"))
			if err := c.Validate(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
		}
	}
}
