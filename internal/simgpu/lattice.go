package simgpu

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// SliceMask is a MIG compute-slice bitmap: bit s set means slice s is
// taken. Instances start only where MIGStarts allows, which keeps every
// slice index below 7, so one word holds any layout.
type SliceMask uint64

// SliceSpan is the mask of n slices from start.
func SliceSpan(start, n int) SliceMask { return (1<<n - 1) << start }

// MIGMove is one lattice-legal placement of a profile: its start slice
// and the slices it claims.
type MIGMove struct {
	Start int
	Span  SliceMask
}

// MIGCover is one cover-table entry: how many compute and memory slices
// the greedy cover of a state reaches.
type MIGCover struct {
	Slices, MemSlices int32
}

// MIGLattice is what every device of one MIG geometry shares and never
// changes: each profile's lattice moves and the cover table. The
// geometry is the device's compute and memory slice counts plus the
// slice shapes of its profile table; the A100-40GB and -80GB tables
// have the same shapes, so they share one lattice. Profiles are named
// by their index in the table (small → large, as MIGProfilesFor orders
// it).
type MIGLattice struct {
	// moves[i] lists profile i's moves in start order, only those that
	// fit the device.
	moves [][]MIGMove
	// memRow is the number of free-memory columns per mask row:
	// MemSlices+1.
	memRow int
	// cover[mask*memRow+freeMemSl] is the greedy largest-first cover of
	// the slices free in mask under a budget of freeMemSl memory slices.
	cover []MIGCover
}

// Moves returns profile i's moves in start order.
func (l *MIGLattice) Moves(i int) []MIGMove { return l.moves[i] }

// Cover returns the greedy cover of the state with occupied slices
// taken and freeMemSl memory slices left.
func (l *MIGLattice) Cover(occupied SliceMask, freeMemSl int) MIGCover {
	return l.cover[int(occupied)*l.memRow+freeMemSl]
}

// place gives each listed profile, in order, a start slice that is free
// in occupied and not claimed by an earlier one, writing them to starts,
// and reports whether any such assignment exists. It searches depth
// first, trying each profile's moves in start order, so its first leaf
// is in-order first-fit whenever first-fit succeeds: it backtracks only
// where first-fit would fail. Memory slices do not depend on positions;
// callers budget them.
func (l *MIGLattice) place(occupied SliceMask, profiles, starts []int) bool {
	if len(profiles) == 0 {
		return true
	}
	for _, m := range l.moves[profiles[0]] {
		if occupied&m.Span == 0 && l.place(occupied|m.Span, profiles[1:], starts[1:]) {
			starts[0] = m.Start
			return true
		}
	}
	return false
}

// lattices caches one lattice per geometry for the process: clusters
// and devices in parallel harness cells build theirs concurrently.
var lattices struct {
	sync.Mutex
	m map[string]*MIGLattice
}

// MIGLatticeFor returns the shared lattice of the spec's geometry.
func MIGLatticeFor(spec DeviceSpec) *MIGLattice {
	profiles := MIGProfilesFor(spec)
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
		lattices.m = make(map[string]*MIGLattice)
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
// exhaustive search over the lattice covers more. The fleet packer
// scores stranded capacity with this table, and an exact fill admits
// fewer tenants there, so the fill stays greedy.
func buildLattice(nSlices, memSlices int, profiles []MIGProfile) *MIGLattice {
	l := &MIGLattice{moves: make([][]MIGMove, len(profiles)), memRow: memSlices + 1}
	var union SliceMask
	for i, p := range profiles {
		for _, start := range MIGStarts(p.Slices) {
			if start+p.Slices <= nSlices {
				m := MIGMove{Start: start, Span: SliceSpan(start, p.Slices)}
				l.moves[i] = append(l.moves[i], m)
				union |= m.Span
			}
		}
	}
	// Every occupancy mask is a union of moves, so it lies below the
	// highest slice any move reaches.
	nMasks := 1 << bits.Len64(uint64(union))
	below := make([]MIGCover, nMasks*l.memRow) // level i-1; level -1 covers nothing
	cur := make([]MIGCover, nMasks*l.memRow)
	for i, p := range profiles {
		for mask := nMasks - 1; mask >= 0; mask-- {
			first := -1
			for j, m := range l.moves[i] {
				if SliceMask(mask)&m.Span == 0 {
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
				next := cur[(mask|int(l.moves[i][first].Span))*l.memRow+free-p.MemSlices]
				cur[row+free] = MIGCover{Slices: next.Slices + int32(p.Slices), MemSlices: next.MemSlices + int32(p.MemSlices)}
			}
		}
		below, cur = cur, below
	}
	l.cover = below
	return l
}

// PlaceMIG returns the start slice of each named profile in a layout of
// a spec device with no instances: the starts ConfigureMIG gives them.
func PlaceMIG(spec DeviceSpec, names []string) ([]int, error) {
	_, starts, err := placeMIG(&spec, names)
	return starts, err
}

// placeMIG looks the named profiles up in the spec's table and gives
// each, in order, a start slice on a device with no instances. It
// checks the memory-slice budget first, then runs the lattice's place;
// either failing is an ErrPlacement.
func placeMIG(spec *DeviceSpec, names []string) ([]MIGProfile, []int, error) {
	table := MIGProfilesFor(*spec)
	profs := make([]MIGProfile, len(names))
	idx := make([]int, len(names))
	memNeed, slNeed := 0, 0
	for i, name := range names {
		idx[i] = slices.IndexFunc(table, func(p MIGProfile) bool { return p.Name == name })
		if idx[i] < 0 {
			return nil, nil, fmt.Errorf("simgpu: unknown MIG profile %q for %s", name, spec.Name)
		}
		profs[i] = table[idx[i]]
		memNeed += profs[i].MemSlices
		slNeed += profs[i].Slices
	}
	if memNeed > spec.MemSlices {
		return nil, nil, fmt.Errorf("%w: %v needs %d memory slices, %d of %d free",
			ErrPlacement, names, memNeed, spec.MemSlices, spec.MemSlices)
	}
	starts := make([]int, len(names))
	if slNeed > spec.MIGSlices || !MIGLatticeFor(*spec).place(0, idx, starts) {
		return nil, nil, fmt.Errorf("%w: no free slice ranges for %v", ErrPlacement, names)
	}
	return profs, starts, nil
}
