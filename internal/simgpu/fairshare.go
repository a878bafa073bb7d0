package simgpu

import "slices"

// MaxMinFair allocates capacity among demands using max–min (water
// filling) fairness: every demand receives min(demand, fair share),
// with capacity left by small demands redistributed to larger ones.
// Negative demands are treated as zero. The returned slice is aligned
// with demands. Invariants (property-tested):
//
//	alloc[i] <= demands[i]
//	sum(alloc) <= capacity (within floating-point tolerance)
//	if sum(demands) <= capacity, alloc == demands
//	allocations are monotone in demand: demands[i] <= demands[j]
//	implies alloc[i] <= alloc[j].
func MaxMinFair(capacity float64, demands []float64) []float64 {
	alloc := make([]float64, len(demands))
	maxMinFairInto(alloc, make([]int, len(demands)), capacity, demands)
	return alloc
}

// maxMinFairInto is MaxMinFair writing into alloc, with idx as the
// sort permutation's scratch; both must have len(demands). It
// allocates nothing. Tied demands are ordered exactly as sort.Slice
// orders them (slices.SortFunc runs the same pdqsort), which fixes
// which of them absorbs each ULP of rounding in the running share.
func maxMinFairInto(alloc []float64, idx []int, capacity float64, demands []float64) {
	if capacity <= 0 || len(demands) == 0 {
		clear(alloc)
		return
	}
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		da, db := demand(demands[a]), demand(demands[b])
		switch {
		case da < db:
			return -1
		case db < da:
			return 1
		}
		return 0
	})
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
}

func demand(d float64) float64 {
	if d < 0 {
		return 0
	}
	return d
}
