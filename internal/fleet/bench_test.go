package fleet

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchDemands is the packer benchmarks' workload: 50 app demands
// drawn from the scenario's demand classes with a fixed seed.
func benchDemands(n int) []Demand {
	rng := rand.New(rand.NewSource(42))
	ds := make([]Demand, n)
	for i := range ds {
		ds[i] = randomDemand(rng, fmt.Sprintf("app%d", i))
	}
	return ds
}

// BenchmarkPack100x50 is a from-scratch greedy solve of 50 app demands
// over a 100-GPU mixed inventory, the shape `paperbench fleet` runs at.
func BenchmarkPack100x50(b *testing.B) {
	inv := mixedInventory(50, 50)
	ds := benchDemands(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(Config{Inventory: inv})
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range ds {
			if _, err := c.Place(d); err != nil {
				b.Fatalf("demand %+v: %v", d, err)
			}
		}
	}
}

// loadedCluster offers 200 bench demands to a 100-GPU mixed fleet
// without a collector and returns it with the demands it placed.
func loadedCluster(tb testing.TB) (*Cluster, []Demand) {
	c, err := New(Config{Inventory: mixedInventory(50, 50)})
	if err != nil {
		tb.Fatal(err)
	}
	ds := benchDemands(200)
	placed := make([]Demand, 0, len(ds))
	for _, d := range ds {
		if _, err := c.Place(d); err == nil {
			placed = append(placed, d)
		}
	}
	if len(placed) < 50 {
		tb.Fatalf("only %d demands placed", len(placed))
	}
	return c, placed
}

// BenchmarkChurn100GPUs measures steady-state incremental churn: one
// eviction plus one placement against a loaded 100-GPU fleet.
func BenchmarkChurn100GPUs(b *testing.B) {
	c, placed := loadedCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := placed[i%len(placed)]
		if err := c.Evict(d.Tenant); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Place(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFragmentation100GPUs measures the metric the sampler and
// the rebalance comparison both lean on.
func BenchmarkFragmentation100GPUs(b *testing.B) {
	c, _ := loadedCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Fragmentation().Fleet
	}
}

// churnAllocs bounds one evict-plus-place step on a cluster without a
// collector: the new placement's share and Placement record. A step
// that cuts a new instance also allocates it and its share list;
// testing.AllocsPerRun's integer mean over the cycle absorbs those.
const churnAllocs = 2

// TestPackerAllocs pins the packer's allocation guarantees on the
// loaded 100-GPU cluster without a collector: the candidate search and
// the fleet-fragmentation read behind the gauges allocate nothing, and
// a churn step allocates at most churnAllocs.
func TestPackerAllocs(t *testing.T) {
	c, placed := loadedCluster(t)
	d := placed[len(placed)/2]
	if n := testing.AllocsPerRun(100, func() { c.bestCandidate(d) }); n != 0 {
		t.Errorf("bestCandidate allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = c.fleetFrag() }); n != 0 {
		t.Errorf("fleetFrag allocates %v per call, want 0", n)
	}
	i := 0
	n := testing.AllocsPerRun(100, func() {
		d := placed[i%len(placed)]
		i++
		if err := c.Evict(d.Tenant); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Place(d); err != nil {
			t.Fatal(err)
		}
	})
	if n > churnAllocs {
		t.Errorf("evict+place allocates %v per step, want at most %d", n, churnAllocs)
	}
}
