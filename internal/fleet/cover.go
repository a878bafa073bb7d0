package fleet

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"repro/internal/simgpu"
)

// move is one lattice-legal placement of a profile: its start slice
// and the slices it claims.
type move struct {
	start int
	span  sliceMask
}

// coverCell is one cover-table entry: how many compute and memory
// slices the greedy cover of a state reaches.
type coverCell struct {
	sl, memSl int32
}

// lattice is what every device of one MIG geometry shares and never
// changes: each profile's lattice moves and the cover table. The
// geometry is the device's compute and memory slice counts plus the
// slice shapes of its profile table; the A100-40GB and -80GB tables
// have the same shapes, so they share one lattice.
type lattice struct {
	// moves[i] lists profile i's moves in start order, only those that
	// fit the device.
	moves [][]move
	// memRow is the number of free-memory columns per mask row:
	// MemSlices+1.
	memRow int
	// cover[mask*memRow+freeMemSl] is the greedy largest-first cover of
	// the slices free in mask under a budget of freeMemSl memory slices.
	cover []coverCell
}

// at returns the cover of the state with occupied slices taken and
// freeMemSl memory slices left.
func (l *lattice) at(occupied sliceMask, freeMemSl int) coverCell {
	return l.cover[int(occupied)*l.memRow+freeMemSl]
}

// lattices caches one lattice per geometry for the process: clusters
// in parallel harness cells build theirs concurrently.
var lattices struct {
	sync.Mutex
	m map[string]*lattice
}

// latticeFor returns the shared lattice of a MIG-capable spec with the
// given profile table (small → large).
func latticeFor(spec *simgpu.DeviceSpec, profiles []simgpu.MIGProfile) *lattice {
	var buf [32]byte
	key := binary.AppendUvarint(buf[:0], uint64(spec.MIGSlices))
	key = binary.AppendUvarint(key, uint64(spec.MemSlices))
	for _, p := range profiles {
		key = binary.AppendUvarint(key, uint64(p.Slices))
		key = binary.AppendUvarint(key, uint64(p.MemSlices))
	}
	lattices.Lock()
	defer lattices.Unlock()
	if l, ok := lattices.m[string(key)]; ok {
		return l
	}
	if lattices.m == nil {
		lattices.m = make(map[string]*lattice)
	}
	l := buildLattice(spec.MIGSlices, spec.MemSlices, profiles)
	lattices.m[string(key)] = l
	return l
}

// buildLattice precomputes the moves of every profile on an
// nSlices-slice device and fills the cover table with the greedy rule:
// walk the profiles large → small, and lay each one at its first free
// start while memory slices last, as often as it fits.
//
// The greedy cover from profile i down of a state is either profile
// i's first free move plus the cover from i of the state that move
// leaves, or, when no move fits, the cover from i-1 of the same state.
// A move only sets bits, so the state it leaves has a larger mask:
// filling masks from the full one down finds that state already done,
// and each profile level needs only the level below it.
//
// The rule is greedy, not exact: in 56 of an A100's 1152 states an
// exhaustive search over the lattice covers more (TestCoverTableGreedyGap
// pins them). Filling the table exactly would change placements.
func buildLattice(nSlices, memSlices int, profiles []simgpu.MIGProfile) *lattice {
	l := &lattice{moves: make([][]move, len(profiles)), memRow: memSlices + 1}
	var union sliceMask
	for i, p := range profiles {
		for _, start := range simgpu.MIGStarts(p.Slices) {
			if start+p.Slices <= nSlices {
				m := move{start: start, span: sliceSpan(start, p.Slices)}
				l.moves[i] = append(l.moves[i], m)
				union |= m.span
			}
		}
	}
	// Every occupancy mask is a union of moves, so it lies below the
	// highest slice any move reaches.
	nMasks := 1 << bits.Len64(uint64(union))
	below := make([]coverCell, nMasks*l.memRow) // level i-1; level -1 covers nothing
	cur := make([]coverCell, nMasks*l.memRow)
	for i, p := range profiles {
		for mask := nMasks - 1; mask >= 0; mask-- {
			first := -1
			for j, m := range l.moves[i] {
				if sliceMask(mask)&m.span == 0 {
					first = j
					break
				}
			}
			row := mask * l.memRow
			for free := 0; free < l.memRow; free++ {
				if first < 0 || p.MemSlices > free {
					cur[row+free] = below[row+free]
					continue
				}
				next := cur[(mask|int(l.moves[i][first].span))*l.memRow+free-p.MemSlices]
				cur[row+free] = coverCell{sl: next.sl + int32(p.Slices), memSl: next.memSl + int32(p.MemSlices)}
			}
		}
		below, cur = cur, below
	}
	l.cover = below
	return l
}
