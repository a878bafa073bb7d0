package fleet

import (
	"fmt"
	"math/rand"
	"testing"
)

// segments lists every segment the packer chooses among for d: the MIG
// segments of every GPU or, when there are none, the whole-GPU MPS
// ones. Of the empty GPUs of one spec class only the first is offered;
// the others reach the same outcomes with GPUs renamed.
func segments(c *Cluster, d Demand) []candidate {
	var out []candidate
	add := func(cand *candidate) { out = append(out, *cand) }
	for _, offer := range []func(*gpuState, *specClass, Demand, func(*candidate)){migCandidatesRef, mpsCandidateRef} {
		emptySeen := make([]bool, len(c.classes))
		for _, g := range c.gpus {
			if g.mode == modeEmpty {
				if emptySeen[g.class] {
					continue
				}
				emptySeen[g.class] = true
			}
			offer(g, &c.classes[g.class], d, add)
		}
		if len(out) > 0 {
			break
		}
	}
	return out
}

// outcome is how many demands a run placed and the fleet
// fragmentation it left.
type outcome struct {
	placed int
	frag   float64
}

// exhaustive places ds on c in order along every sequence of segment
// choices (a demand with no segment is rejected, as Place rejects it)
// and returns, per number of demands placed, the lowest final
// fragmentation any sequence reaches. c is left as it was.
func exhaustive(c *Cluster, ds []Demand) map[int]float64 {
	best := map[int]float64{}
	var walk func(i, placed int)
	walk = func(i, placed int) {
		if i == len(ds) {
			if f, ok := best[placed]; !ok || c.fleetFrag() < f {
				best[placed] = c.fleetFrag()
			}
			return
		}
		cands := segments(c, ds[i])
		if len(cands) == 0 {
			walk(i+1, placed)
		}
		for j := range cands {
			c.apply(ds[i], &cands[j])
			walk(i+1, placed+1)
			if err := c.Evict(ds[i].Tenant); err != nil {
				panic(err)
			}
		}
	}
	walk(0, 0)
	return best
}

// TestGreedyPackerGap measures the greedy rule itself, where
// TestPackerMatchesReference only checks the fast packer against the
// slow greedy one. On 500 seeded instances (3–5 demands on 2–3 A100s)
// it compares Place's outcome with the best any sequence of segment
// choices reaches, knowing the demands to come: the most demands
// placed, and the lowest final fragmentation among sequences placing
// at least as many as greedy. It pins how many instances greedy falls
// short on and its worst gaps: 76 instances place fewer demands, by 2
// at worst, and 195 end more fragmented, by 0.3321 at worst. A packer
// change that widens or closes a gap fails here on purpose.
func TestGreedyPackerGap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var worstPlaced, worstFrag outcome
	var worstPlacedAt, worstFragAt string
	shortPlaced, shortFrag := 0, 0
	for trial := 0; trial < 500; trial++ {
		inv := mixedInventory(1+trial%2, 1)
		ds := make([]Demand, 3+trial%3)
		for i := range ds {
			ds[i] = randomDemand(rng, fmt.Sprintf("t%d", i))
		}
		c, err := New(Config{Inventory: inv})
		if err != nil {
			t.Fatal(err)
		}
		greedy := outcome{}
		for _, d := range ds {
			if _, err := c.Place(d); err == nil {
				greedy.placed++
			}
		}
		greedy.frag = c.fleetFrag()

		c, _ = New(Config{Inventory: inv})
		best := exhaustive(c, ds)
		if c.Tenants() != 0 || c.fleetFrag() != 0 {
			t.Fatalf("trial %d: the search left %d tenants, fragmentation %v", trial, c.Tenants(), c.fleetFrag())
		}
		var gap outcome
		for placed, frag := range best {
			if d := placed - greedy.placed; d > gap.placed {
				gap.placed = d
			}
			if placed >= greedy.placed && greedy.frag-frag > gap.frag {
				gap.frag = greedy.frag - frag
			}
		}
		if _, ok := best[greedy.placed]; !ok {
			t.Fatalf("trial %d: no sequence places greedy's %d demands %v", trial, greedy.placed, ds)
		}
		if gap.placed > 0 {
			shortPlaced++
		}
		if gap.frag > 1e-9 {
			shortFrag++
		}
		at := fmt.Sprintf("trial %d, %d GPUs, demands %v", trial, len(inv), ds)
		if gap.placed > worstPlaced.placed {
			worstPlaced.placed, worstPlacedAt = gap.placed, at
		}
		if gap.frag > worstFrag.frag {
			worstFrag.frag, worstFragAt = gap.frag, at
		}
	}
	t.Logf("greedy places fewer in %d of 500 trials, worst by %d at %s", shortPlaced, worstPlaced.placed, worstPlacedAt)
	t.Logf("greedy fragments more in %d of 500 trials, worst by %.4f at %s", shortFrag, worstFrag.frag, worstFragAt)
	if got := fmt.Sprintf("%d/%d %d/%.4f", shortPlaced, worstPlaced.placed, shortFrag, worstFrag.frag); got != "76/2 195/0.3321" {
		t.Errorf("trials short/worst gap in placed demands and in fragmentation = %s, want the pinned 76/2 195/0.3321", got)
	}
}
