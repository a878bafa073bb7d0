package report

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// fleetTestOptions is a small-but-real grid cell basis: enough GPUs
// and apps to exercise MIG shares, whole-GPU MPS fallback, rejections,
// and rebalancing, while staying fast enough to render three times.
func fleetTestOptions() FleetOptions {
	return FleetOptions{
		GPUs80: 10, GPUs40: 10, Apps: 16,
		Duration: 2 * time.Minute, Seed: 3,
	}
}

// TestFleetDeterminism is the fleet artifact's regression contract:
// the rendering is byte-identical at -parallel 1 and 4 and across
// repeated parallel runs (every reported line is virtual, so
// scheduling may not leak in).
func TestFleetDeterminism(t *testing.T) {
	render := func(workers int) []byte {
		prev := harness.SetParallelism(workers)
		defer harness.SetParallelism(prev)
		var b bytes.Buffer
		if err := Fleet(&b, fleetTestOptions()); err != nil {
			t.Fatalf("Fleet with %d workers: %v", workers, err)
		}
		return b.Bytes()
	}
	seq := render(1)
	if len(seq) == 0 {
		t.Fatal("sequential fleet artifact is empty")
	}
	par := render(4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel output differs from sequential:\n%s", firstDiff(seq, par))
	}
	par2 := render(4)
	if !bytes.Equal(par, par2) {
		t.Fatalf("repeated parallel runs differ:\n%s", firstDiff(par, par2))
	}
}

// TestFleetArtifactShape pins the artifact's line vocabulary: one
// config echo per load cell, admission and class lines, at least two
// fragmentation samples, and the rebalance ledger.
func TestFleetArtifactShape(t *testing.T) {
	var b bytes.Buffer
	if err := Fleet(&b, fleetTestOptions()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Fleet-scale placement",
		"config: load=0.5x", "config: load=1.0x", "config: load=1.5x",
		"virtual: arrivals=", "virtual: class small",
		"virtual: class oversize", "virtual: frag t=",
		"virtual: rebalances=", "virtual: peak_tenants=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("artifact is missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "virtual: frag t="); n < 6 {
		t.Errorf("only %d fragmentation samples across 3 cells", n)
	}
	if strings.Contains(out, "wall:") {
		t.Error("fleet artifact must stay purely virtual (no wall lines)")
	}
}

// storeLog is an Attach hook recording each run's store and trace pid
// by scope. Cells run on parallel harness workers, so it is called
// concurrently.
type storeLog struct {
	mu   sync.Mutex
	seen map[string]*tsdb.DB
	pids map[string]int
}

func (l *storeLog) attach(c *obs.Collector, db *tsdb.DB) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen, l.pids = make(map[string]*tsdb.DB), make(map[string]int)
	}
	l.seen[c.Scope()], l.pids[c.Scope()] = db, c.TracePID()
}

// check requires exactly one attached store per scope, given in grid
// order, each of which scraped series during its run and was numbered
// trace process (grid position + 1).
func (l *storeLog) check(t *testing.T, scopes []string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.seen) != len(scopes) {
		t.Fatalf("attached scopes %v, want %v", l.seen, scopes)
	}
	for i, scope := range scopes {
		if pid := l.pids[scope]; pid != i+1 {
			t.Errorf("cell %s attached as trace pid %d, want %d", scope, pid, i+1)
		}
		db := l.seen[scope]
		if db == nil {
			t.Fatalf("cell %s never attached a series store (got %v)", scope, l.seen)
		}
		if len(db.List()) == 0 {
			t.Errorf("cell %s store scraped no series", scope)
		}
	}
}

// TestFleetTelemetryHooks checks the live-plane wiring: each load
// cell attaches under its own scope with its own series store.
func TestFleetTelemetryHooks(t *testing.T) {
	var b bytes.Buffer
	opts := fleetTestOptions()
	var log storeLog
	opts.Attach = log.attach
	if err := Fleet(&b, opts); err != nil {
		t.Fatal(err)
	}
	var scopes []string
	for _, m := range fleetLoads {
		scopes = append(scopes, "fleet/"+fleetLoadLabel(m))
	}
	log.check(t, scopes)
}
