package simgpu

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/devent"
)

// multisets lists every multiset of profile-table indices (ascending)
// whose memory slices fit the spec and that has at most one instance
// more than the spec has compute slices, so the overfull ones are in
// too.
func multisets(spec DeviceSpec, profiles []MIGProfile) [][]int {
	var out [][]int
	var grow func(from, mem int, cur []int)
	grow = func(from, mem int, cur []int) {
		out = append(out, slices.Clone(cur))
		if len(cur) > spec.MIGSlices {
			return
		}
		for i := from; i < len(profiles); i++ {
			if m := mem + profiles[i].MemSlices; m <= spec.MemSlices {
				grow(i, m, append(cur, i))
			}
		}
	}
	grow(0, 0, nil)
	return out
}

// orders lists every distinct ordering of the ascending multiset ms.
func orders(ms []int) [][]int {
	var out [][]int
	var build func(cur []int, left []int)
	build = func(cur, left []int) {
		if len(left) == 0 {
			out = append(out, slices.Clone(cur))
			return
		}
		for i, x := range left {
			if i > 0 && left[i-1] == x {
				continue
			}
			rest := append(slices.Clone(left[:i]), left[i+1:]...)
			build(append(cur, x), rest)
		}
	}
	build(nil, ms)
	return out
}

// validStarts reports whether starts place the profiles on the spec:
// every start is a MIGStarts entry inside the device and no two
// instances share a slice.
func validStarts(spec DeviceSpec, profs []MIGProfile, starts []int) bool {
	var used SliceMask
	for i, p := range profs {
		span := SliceSpan(starts[i], p.Slices)
		if !slices.Contains(MIGStarts(p.Slices), starts[i]) || starts[i]+p.Slices > spec.MIGSlices || used&span != 0 {
			return false
		}
		used |= span
	}
	return true
}

// placeable is the brute force: it counts every assignment of
// MIGStarts entries to the profiles that keeps instances inside the
// device and disjoint, and reports whether there is one within the
// memory slices.
func placeable(spec DeviceSpec, profs []MIGProfile) bool {
	mem := 0
	for _, p := range profs {
		mem += p.MemSlices
	}
	var count func(i int, used SliceMask) int
	count = func(i int, used SliceMask) int {
		if i == len(profs) {
			return 1
		}
		n := 0
		for _, s := range MIGStarts(profs[i].Slices) {
			if span := SliceSpan(s, profs[i].Slices); s+profs[i].Slices <= spec.MIGSlices && used&span == 0 {
				n += count(i+1, used|span)
			}
		}
		return n
	}
	return mem <= spec.MemSlices && count(0, 0) > 0
}

// firstFit places the profiles one by one, in order, each at its first
// free start, as nvidia-smi's auto placement does.
func firstFit(spec DeviceSpec, profs []MIGProfile) ([]int, bool) {
	var used SliceMask
	mem := 0
	starts := make([]int, len(profs))
	for i, p := range profs {
		if mem += p.MemSlices; mem > spec.MemSlices {
			return nil, false
		}
		found := false
		for _, s := range MIGStarts(p.Slices) {
			if span := SliceSpan(s, p.Slices); s+p.Slices <= spec.MIGSlices && used&span == 0 {
				starts[i], used, found = s, used|span, true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return starts, true
}

// TestConfigureMIGExhaustive runs ConfigureMIG on every order of every
// profile multiset of every MIG-capable spec and compares it with the
// brute force: it must place exactly the placeable multisets, at valid
// starts, and at first-fit's starts whenever in-order first-fit
// succeeds. It pins the count: 37 multisets per A100 spec fit within 7
// compute and 8 memory slices, all 37 place, and the only one
// largest-first first-fit misses is {3g, 2g, 2g} (2g@0, 2g@2, 3g@4).
func TestConfigureMIGExhaustive(t *testing.T) {
	for _, spec := range []DeviceSpec{A100SXM440GB(), A100SXM480GB()} {
		profiles := MIGProfilesFor(spec)
		dev, err := NewDevice(devent.NewEnv(), "gpu0", spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.EnableMIG(nil); err != nil {
			t.Fatal(err)
		}
		fits, placed := 0, 0
		var missed []string
		for _, ms := range multisets(spec, profiles)[1:] { // skip the empty multiset
			profs := make([]MIGProfile, len(ms))
			slSum := 0
			for i, pi := range ms {
				profs[i] = profiles[pi]
				slSum += profs[i].Slices
			}
			want := placeable(spec, profs)
			if slSum <= spec.MIGSlices {
				fits++
			}
			if want {
				placed++
			}
			for _, order := range orders(ms) {
				names := make([]string, len(order))
				inOrder := make([]MIGProfile, len(order))
				for i, pi := range order {
					inOrder[i], names[i] = profiles[pi], profiles[pi].Name
				}
				created, err := dev.ConfigureMIG(nil, names)
				if (err == nil) != want {
					t.Fatalf("%s %v: ConfigureMIG err = %v, brute force placeable = %v", spec.Name, names, err, want)
				}
				if err != nil {
					continue
				}
				got := make([]int, len(created))
				for i, in := range created {
					got[i] = in.start
				}
				if !validStarts(spec, inOrder, got) {
					t.Fatalf("%s %v: ConfigureMIG starts %v are not a valid placement", spec.Name, names, got)
				}
				if ff, ok := firstFit(spec, inOrder); ok && !slices.Equal(got, ff) {
					t.Fatalf("%s %v: ConfigureMIG starts %v, first-fit %v", spec.Name, names, got, ff)
				}
			}
			largestFirst := slices.Clone(profs)
			slices.SortStableFunc(largestFirst, func(a, b MIGProfile) int { return b.Slices - a.Slices })
			if _, ok := firstFit(spec, largestFirst); want && !ok {
				var names []string
				for _, p := range largestFirst {
					names = append(names, p.Name)
				}
				missed = append(missed, fmt.Sprint(names))
			}
		}
		if fits != 37 || placed != 37 {
			t.Errorf("%s: %d multisets fit the slice budgets and %d place, want 37 and 37", spec.Name, fits, placed)
		}
		wantMissed := fmt.Sprint([]string{profiles[2].Name, profiles[1].Name, profiles[1].Name})
		if len(missed) != 1 || missed[0] != wantMissed {
			t.Errorf("%s: largest-first first-fit misses %v, want only %s", spec.Name, missed, wantMissed)
		}
	}
}
