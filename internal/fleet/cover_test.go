package fleet

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/simgpu"
)

// migSpecs lists every MIG-capable spec simgpu defines.
func migSpecs() []simgpu.DeviceSpec {
	var out []simgpu.DeviceSpec
	for _, s := range []simgpu.DeviceSpec{simgpu.A100SXM440GB(), simgpu.A100SXM480GB(), simgpu.MI210()} {
		if s.MIGSlices > 0 {
			out = append(out, s)
		}
	}
	return out
}

// coverFree is the greedy walk the cover table tabulates, kept as its
// reference: it lays the largest fitting profiles over the slices of an
// nSlices-slice device free in occupied (respecting the placement
// lattice and the free memory-slice budget) and reports how many
// compute and memory slices the cover reaches.
func coverFree(profiles []simgpu.MIGProfile, nSlices int, occupied simgpu.SliceMask, freeMemSl int) (usableSl, usableMemSl int) {
	covered := occupied
	memLeft := freeMemSl
	// profiles are small→large; walk large→small.
	for i := len(profiles) - 1; i >= 0; i-- {
		p := profiles[i]
		starts := simgpu.MIGStarts(p.Slices)
		for {
			placed := false
			for _, start := range starts {
				if start+p.Slices > nSlices || p.MemSlices > memLeft {
					continue
				}
				span := simgpu.SliceSpan(start, p.Slices)
				if covered&span != 0 {
					continue
				}
				covered |= span
				memLeft -= p.MemSlices
				usableSl += p.Slices
				usableMemSl += p.MemSlices
				placed = true
				break
			}
			if !placed {
				break
			}
		}
	}
	return usableSl, usableMemSl
}

// coverState is one (occupancy mask, free memory slices) state of a
// spec's cover table.
type coverState struct {
	mask simgpu.SliceMask
	free int
}

// states lists every state of the spec's cover table.
func states(spec *simgpu.DeviceSpec) []coverState {
	var out []coverState
	for mask := simgpu.SliceMask(0); mask < 1<<spec.MIGSlices; mask++ {
		for free := 0; free <= spec.MemSlices; free++ {
			out = append(out, coverState{mask, free})
		}
	}
	return out
}

// exactCover is the best cover of every state by exhaustive search
// over the MIGStarts lattice: the most compute slices any set of
// disjoint lattice placements within the memory budget reaches, then
// the most memory slices.
func exactCover(spec *simgpu.DeviceSpec) map[coverState]simgpu.MIGCover {
	l := simgpu.MIGLatticeFor(*spec)
	profiles := simgpu.MIGProfilesFor(*spec)
	memo := map[coverState]simgpu.MIGCover{}
	var best func(st coverState) simgpu.MIGCover
	best = func(st coverState) simgpu.MIGCover {
		if b, ok := memo[st]; ok {
			return b
		}
		var b simgpu.MIGCover
		for i, p := range profiles {
			if p.MemSlices > st.free {
				continue
			}
			for _, m := range l.Moves(i) {
				if st.mask&m.Span != 0 {
					continue
				}
				r := best(coverState{st.mask | m.Span, st.free - p.MemSlices})
				r.Slices += int32(p.Slices)
				r.MemSlices += int32(p.MemSlices)
				if r.Slices > b.Slices || r.Slices == b.Slices && r.MemSlices > b.MemSlices {
					b = r
				}
			}
		}
		memo[st] = b
		return b
	}
	for _, st := range states(spec) {
		best(st)
	}
	return memo
}

// TestCoverTableMatchesGreedy requires the tabulated cover to equal
// the greedy walk in every (occupancy mask, free memory slices) state
// of every MIG-capable spec.
func TestCoverTableMatchesGreedy(t *testing.T) {
	for _, spec := range migSpecs() {
		profiles := simgpu.MIGProfilesFor(spec)
		l := simgpu.MIGLatticeFor(spec)
		for _, st := range states(&spec) {
			got := l.Cover(st.mask, st.free)
			sl, memSl := coverFree(profiles, spec.MIGSlices, st.mask, st.free)
			if int(got.Slices) != sl || int(got.MemSlices) != memSl {
				t.Fatalf("%s mask %07b free memory %d: table covers %d/%d slices, greedy walk %d/%d",
					spec.Name, st.mask, st.free, got.Slices, got.MemSlices, sl, memSl)
			}
		}
	}
}

// TestCoverTableGreedyGap compares the table with exhaustive search
// and pins where the greedy rule falls short: 56 of the 1152 states
// per A100 spec. In the worst one a 3g instance at slice 0 has taken 4
// memory slices; greedy lays a 3g at slice 4 and strands slice 3,
// while 1g@3, 2g@4 and 1g@6 use all four free slices. Switching the
// fill to the exact cover moves the count to 0 and fails this test on
// purpose: it changes placement decisions.
func TestCoverTableGreedyGap(t *testing.T) {
	for _, spec := range migSpecs() {
		l := simgpu.MIGLatticeFor(spec)
		exact := exactCover(&spec)
		short := 0
		for _, st := range states(&spec) {
			got, want := l.Cover(st.mask, st.free), exact[st]
			if got.Slices > want.Slices || got.Slices == want.Slices && got.MemSlices > want.MemSlices {
				t.Fatalf("%s state %+v: table %+v beats exhaustive search %+v", spec.Name, st, got, want)
			}
			if got != want {
				short++
			}
		}
		if short != 56 {
			t.Errorf("%s: table falls short of exhaustive search in %d states, want 56", spec.Name, short)
		}
		// The 3g@0 state: slices 0–2 and 4 of 8 memory slices taken.
		st := coverState{simgpu.SliceSpan(0, 3), spec.MemSlices - 4}
		if got, want := l.Cover(st.mask, st.free), (simgpu.MIGCover{Slices: 3, MemSlices: 4}); got != want {
			t.Errorf("%s 3g@0: table covers %+v, want greedy's %+v", spec.Name, got, want)
		}
		if got, want := exact[st], (simgpu.MIGCover{Slices: 4, MemSlices: 4}); got != want {
			t.Errorf("%s 3g@0: exhaustive search covers %+v, want %+v", spec.Name, got, want)
		}
	}
}

// TestLatticeForConcurrent builds one lattice from several goroutines,
// as clusters in parallel harness cells do, and requires them all to
// share it. Run it under -race.
func TestLatticeForConcurrent(t *testing.T) {
	spec := simgpu.A100SXM480GB()
	spec.MemSlices = 6 // a geometry no other test builds first
	got := make([]*simgpu.MIGLattice, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = simgpu.MIGLatticeFor(spec)
		}()
	}
	wg.Wait()
	for i, l := range got {
		if l != got[0] {
			t.Fatalf("goroutine %d got lattice %p, goroutine 0 got %p", i, l, got[0])
		}
	}
	// The last state of the 6-memory-slice geometry is in the table.
	if got := got[0].Cover(simgpu.SliceSpan(0, 7), 6); got != (simgpu.MIGCover{}) {
		t.Fatalf("full mask covers %+v, want nothing", got)
	}
}

// TestFuzzCorpusReachesGreedyGap requires every seed-gap-* FuzzPlace
// corpus entry to drive FuzzPlace's place-then-evict sequence through
// a state where the table falls short of exhaustive search, so every
// fuzz run starts from such states.
func TestFuzzCorpusReachesGreedyGap(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzPlace", "seed-gap-*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed-gap corpus entries (%v)", err)
	}
	exact := map[*simgpu.MIGLattice]map[coverState]simgpu.MIGCover{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		spec, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		demands, err := ParseDemands(spec)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		c, err := New(Config{Inventory: mixedInventory(2, 1)})
		if err != nil {
			t.Fatal(err)
		}
		gap := false
		check := func() {
			for _, g := range c.gpus {
				k := &c.classes[g.class]
				if g.mode != modeMIG {
					continue
				}
				if exact[k.lat] == nil {
					exact[k.lat] = exactCover(&k.spec)
				}
				st := coverState{g.occupied, k.spec.MemSlices - g.memSlices}
				gap = gap || k.lat.Cover(st.mask, st.free) != exact[k.lat][st]
			}
		}
		for _, d := range demands {
			c.Place(d)
			check()
		}
		for i, d := range c.Demands() {
			if i%2 == 0 {
				if err := c.Evict(d.Tenant); err != nil {
					t.Fatal(err)
				}
				check()
			}
		}
		if !gap {
			t.Errorf("%s (%s) reaches no state where greedy and exact covers differ", f, spec)
		}
	}
}
