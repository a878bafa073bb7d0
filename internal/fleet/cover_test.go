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
func coverFree(profiles []simgpu.MIGProfile, nSlices int, occupied sliceMask, freeMemSl int) (usableSl, usableMemSl int) {
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
				span := sliceSpan(start, p.Slices)
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

// exactCover is the best cover of every state by exhaustive search
// over the MIGStarts lattice: the most compute slices any set of
// disjoint lattice placements within the memory budget reaches, then
// the most memory slices. It is indexed like lattice.cover.
func exactCover(l *lattice, profiles []simgpu.MIGProfile) []coverCell {
	memo := make([]coverCell, len(l.cover))
	done := make([]bool, len(l.cover))
	var best func(mask sliceMask, free int) coverCell
	best = func(mask sliceMask, free int) coverCell {
		at := int(mask)*l.memRow + free
		if done[at] {
			return memo[at]
		}
		var b coverCell
		for i, p := range profiles {
			if p.MemSlices > free {
				continue
			}
			for _, m := range l.moves[i] {
				if mask&m.span != 0 {
					continue
				}
				r := best(mask|m.span, free-p.MemSlices)
				r.sl += int32(p.Slices)
				r.memSl += int32(p.MemSlices)
				if r.sl > b.sl || r.sl == b.sl && r.memSl > b.memSl {
					b = r
				}
			}
		}
		memo[at], done[at] = b, true
		return b
	}
	for at := range memo {
		best(sliceMask(at/l.memRow), at%l.memRow)
	}
	return memo
}

// TestCoverTableMatchesGreedy requires the tabulated cover to equal
// the greedy walk in every (occupancy mask, free memory slices) state
// of every MIG-capable spec.
func TestCoverTableMatchesGreedy(t *testing.T) {
	for _, spec := range migSpecs() {
		profiles := simgpu.MIGProfilesFor(spec)
		l := latticeFor(&spec, profiles)
		if want := 128 * (spec.MemSlices + 1); len(l.cover) != want {
			t.Fatalf("%s: %d table states, want %d", spec.Name, len(l.cover), want)
		}
		for at, got := range l.cover {
			mask, free := sliceMask(at/l.memRow), at%l.memRow
			sl, memSl := coverFree(profiles, spec.MIGSlices, mask, free)
			if int(got.sl) != sl || int(got.memSl) != memSl {
				t.Fatalf("%s mask %07b free memory %d: table covers %d/%d slices, greedy walk %d/%d",
					spec.Name, mask, free, got.sl, got.memSl, sl, memSl)
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
		profiles := simgpu.MIGProfilesFor(spec)
		l := latticeFor(&spec, profiles)
		exact := exactCover(l, profiles)
		short := 0
		for at, got := range l.cover {
			want := exact[at]
			if got.sl > want.sl || got.sl == want.sl && got.memSl > want.memSl {
				t.Fatalf("%s state %d: table %+v beats exhaustive search %+v", spec.Name, at, got, want)
			}
			if got != want {
				short++
			}
		}
		if short != 56 {
			t.Errorf("%s: table falls short of exhaustive search in %d states, want 56", spec.Name, short)
		}
		// The 3g@0 state: slices 0–2 and 4 of 8 memory slices taken.
		at := int(sliceSpan(0, 3))*l.memRow + spec.MemSlices - 4
		if got, want := l.cover[at], (coverCell{sl: 3, memSl: 4}); got != want {
			t.Errorf("%s 3g@0: table covers %+v, want greedy's %+v", spec.Name, got, want)
		}
		if got, want := exact[at], (coverCell{sl: 4, memSl: 4}); got != want {
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
	profiles := simgpu.MIGProfilesFor(spec)
	got := make([]*lattice, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = latticeFor(&spec, profiles)
		}()
	}
	wg.Wait()
	for i, l := range got {
		if l != got[0] || len(l.cover) != 128*7 {
			t.Fatalf("goroutine %d got lattice %p with %d states, goroutine 0 got %p", i, l, len(l.cover), got[0])
		}
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
	exact := map[*lattice][]coverCell{}
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
					exact[k.lat] = exactCover(k.lat, k.profiles)
				}
				at := int(g.occupied)*k.lat.memRow + k.spec.MemSlices - g.memSlices
				gap = gap || k.lat.cover[at] != exact[k.lat][at]
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
