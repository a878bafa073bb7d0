package simgpu

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMaxMinFairUncontended(t *testing.T) {
	alloc := MaxMinFair(100, []float64{10, 20, 30})
	want := []float64{10, 20, 30}
	for i := range want {
		if math.Abs(alloc[i]-want[i]) > 1e-9 {
			t.Fatalf("alloc = %v", alloc)
		}
	}
}

func TestMaxMinFairContended(t *testing.T) {
	// Demands 10, 50, 90 into capacity 90: 10 gets 10; remaining 80
	// split between two → 40 each.
	alloc := MaxMinFair(90, []float64{10, 50, 90})
	want := []float64{10, 40, 40}
	for i := range want {
		if math.Abs(alloc[i]-want[i]) > 1e-9 {
			t.Fatalf("alloc = %v want %v", alloc, want)
		}
	}
}

func TestMaxMinFairEqualDemands(t *testing.T) {
	alloc := MaxMinFair(100, []float64{100, 100, 100, 100})
	for _, a := range alloc {
		if math.Abs(a-25) > 1e-9 {
			t.Fatalf("alloc = %v", alloc)
		}
	}
}

func TestMaxMinFairEdgeCases(t *testing.T) {
	if got := MaxMinFair(0, []float64{5}); got[0] != 0 {
		t.Fatalf("zero capacity: %v", got)
	}
	if got := MaxMinFair(10, nil); len(got) != 0 {
		t.Fatalf("nil demands: %v", got)
	}
	if got := MaxMinFair(10, []float64{-5, 20}); got[0] != 0 || math.Abs(got[1]-10) > 1e-9 {
		t.Fatalf("negative demand: %v", got)
	}
}

func TestQuickMaxMinFairInvariants(t *testing.T) {
	f := func(capRaw uint16, demRaw []uint16) bool {
		capacity := float64(capRaw)
		demands := make([]float64, len(demRaw))
		var sum float64
		for i, r := range demRaw {
			demands[i] = float64(r)
			sum += demands[i]
		}
		alloc := MaxMinFair(capacity, demands)
		var total float64
		for i, a := range alloc {
			if a < -1e-9 || a > demands[i]+1e-9 {
				return false // never exceed demand
			}
			total += a
		}
		if total > capacity+1e-6 {
			return false // never exceed capacity
		}
		if sum <= capacity {
			// feasible: everyone gets their demand
			for i := range alloc {
				if math.Abs(alloc[i]-demands[i]) > 1e-6 {
					return false
				}
			}
		} else if capacity > 0 && len(demands) > 0 {
			// work conserving when contended
			if math.Abs(total-capacity) > 1e-6 {
				return false
			}
		}
		// monotone in demand
		for i := range demands {
			for j := range demands {
				if demands[i] <= demands[j] && alloc[i] > alloc[j]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// maxMinFairRef is the allocator as first written, with sort.Slice,
// kept as the oracle the in-place maxMinFairInto must match bit for
// bit: a different order among tied demands moves ULPs of the running
// share between kernels, and with them every downstream duration.
func maxMinFairRef(capacity float64, demands []float64) []float64 {
	alloc := make([]float64, len(demands))
	if capacity <= 0 || len(demands) == 0 {
		return alloc
	}
	idx := make([]int, len(demands))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return demand(demands[idx[a]]) < demand(demands[idx[b]]) })
	remaining := capacity
	left := len(demands)
	for _, i := range idx {
		d := demand(demands[i])
		share := remaining / float64(left)
		if d <= share {
			alloc[i] = d
			remaining -= d
		} else {
			alloc[i] = share
			remaining -= share
		}
		left--
	}
	return alloc
}

// checkMaxMinFairRef runs the in-place allocator on dirty scratch and
// requires every allocation to equal the oracle's bit for bit.
func checkMaxMinFairRef(t *testing.T, capacity float64, demands []float64) {
	t.Helper()
	want := maxMinFairRef(capacity, demands)
	alloc := make([]float64, len(demands))
	idx := make([]int, len(demands))
	for i := range alloc {
		alloc[i], idx[i] = math.NaN(), -1
	}
	maxMinFairInto(alloc, idx, capacity, demands)
	for i := range want {
		if math.Float64bits(alloc[i]) != math.Float64bits(want[i]) {
			t.Fatalf("capacity %v demands %v:\nalloc  %v\noracle %v", capacity, demands, alloc, want)
		}
	}
}

// maxMinFuzzDemands decodes one demand per byte onto a coarse grid of
// thirds from -32/3 to 223/3, so ties, zeros and negatives are common
// and shares rarely divide evenly.
func maxMinFuzzDemands(raw []byte) []float64 {
	if len(raw) > 64 {
		raw = raw[:64]
	}
	demands := make([]float64, len(raw))
	for i, b := range raw {
		demands[i] = float64(int(b)-32) / 3
	}
	return demands
}

func TestMaxMinFairMatchesReference(t *testing.T) {
	cases := []struct {
		capacity float64
		raw      []byte
	}{
		{0, []byte{40, 50}},
		{-5, []byte{40}},
		{100, nil},
		{7, []byte{32, 32, 32}},           // all-zero demands
		{7, []byte{0, 10, 31, 32, 200}},   // negatives clamp to zero
		{100, []byte{90, 90, 90, 90, 90}}, // uncontended ties
		{1, []byte{90, 90, 90, 90, 90, 90, 90}},
		{10, []byte{255, 200, 255, 40, 255, 200, 255, 40, 255, 200, 255, 40}},     // n = 12: insertion sort
		{10, []byte{255, 200, 255, 40, 255, 200, 255, 40, 255, 200, 255, 40, 77}}, // n = 13: pdqsort
		{97, []byte{9, 200, 200, 33, 200, 9, 200, 200, 33, 200, 9, 200, 200, 33, 200, 9, 200, 200, 33, 200, 9, 200, 200, 33, 200, 9, 200, 200, 33, 200, 9, 200, 200, 33, 200}},
	}
	for _, c := range cases {
		checkMaxMinFairRef(t, c.capacity, maxMinFuzzDemands(c.raw))
	}
	checkMaxMinFairRef(t, 100, []float64{math.Inf(1), math.NaN(), 5, math.NaN(), math.Inf(1)})
}

// FuzzMaxMinFair compares the in-place allocator, and the MaxMinFair
// wrapper over it, with the sort.Slice oracle bit for bit.
func FuzzMaxMinFair(f *testing.F) {
	f.Add(100.0, []byte{42, 52, 62})
	f.Add(1.0, []byte{90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90})
	f.Add(0.0, []byte{40})
	f.Add(10.0, []byte{0, 32, 255, 32, 0, 255, 32, 0, 255, 32, 0, 255, 32, 0})
	f.Add(108.0, []byte{62, 62, 62, 62, 62, 62, 62, 62, 62, 62, 62, 62, 62, 62, 62, 62, 62, 62, 62, 62})
	f.Fuzz(func(t *testing.T, capacity float64, raw []byte) {
		demands := maxMinFuzzDemands(raw)
		checkMaxMinFairRef(t, capacity, demands)
		want := maxMinFairRef(capacity, demands)
		for i, a := range MaxMinFair(capacity, demands) {
			if math.Float64bits(a) != math.Float64bits(want[i]) {
				t.Fatalf("MaxMinFair(%v, %v)[%d] = %v, oracle %v", capacity, demands, i, a, want[i])
			}
		}
	})
}
