package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/obs"
)

// chaosSpecFor derives a distinct but deterministic fault schedule
// from the soak seed: every seed gets a different arrival rate and
// submit-failure probability so the suite explores sparse and dense
// schedules, single-kind and all-kind mixes.
func chaosSpecFor(seed int) fault.Spec {
	spec := fault.Spec{
		Seed:           int64(seed),
		Rate:           0.2 + 0.1*float64(seed%5),
		SubmitFailProb: 0.01 * float64(seed%4),
	}
	// A third of the seeds restrict the kinds to stress one recovery
	// path in isolation.
	switch seed % 6 {
	case 4:
		spec.Kinds = []fault.Kind{fault.KindWorker}
	case 5:
		spec.Kinds = []fault.Kind{fault.KindGPU}
	}
	return spec
}

// runChaosBurst runs the Table 1 burst workload (4 concurrent LLaMa
// processes under MPS, 32 completions) with the given fault schedule.
// It is the chaos soak's unit of work: the returned result carries the
// task ledger, the injected-fault count, and how many completions
// failed terminally.
func runChaosBurst(spec fault.Spec) (*MultiplexResult, error) {
	return RunMultiplex(MultiplexConfig{
		Mode:        ModeMPS,
		Processes:   4,
		Completions: 32,
		Chaos:       &spec,
	})
}

// TestChaosSoak is the invariant suite's property test: the Table 1
// burst workload under ≥20 random (seeded) fault schedules. Whatever
// the injector does — worker kills, GPU context losses, transient
// submit failures — every submitted task must reach exactly one
// terminal state: no lost futures, no double completions. The run
// itself fails on a ledger violation; the soak also pins the tallies.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	const seeds = 24
	results, err := harness.Map(seeds, func(i int) (*MultiplexResult, error) {
		return runChaosBurst(chaosSpecFor(i + 1))
	})
	if err != nil {
		t.Fatalf("chaos burst: %v", err)
	}
	totalFaults, totalFailed := 0, 0
	for i, res := range results {
		seed := i + 1
		l := res.Ledger
		if err := l.Err(); err != nil {
			t.Errorf("seed %d: invariant violated: %v", seed, err)
		}
		// 4 preloads + 32 completions, each submitted exactly once;
		// retries reuse the task, so the ledger must count 36
		// submissions and 36 terminal outcomes.
		if l.Submitted() != 36 || l.Terminal() != 36 {
			t.Errorf("seed %d: submitted %d terminal %d tasks, want 36/36 (outcomes %v)",
				seed, l.Submitted(), l.Terminal(), l.Outcomes())
		}
		if got := res.Latencies.N() + res.Failed; got != res.Completions {
			t.Errorf("seed %d: %d latencies + %d failed = %d, want %d completions",
				seed, res.Latencies.N(), res.Failed, got, res.Completions)
		}
		totalFaults += res.Faults
		totalFailed += res.Failed
	}
	if totalFaults == 0 {
		t.Fatal("no seed injected a single fault; the soak exercised nothing")
	}
	t.Logf("soak: %d seeds, %d faults injected, %d completions failed terminally",
		seeds, totalFaults, totalFailed)
}

// TestChaosDeterminism is the chaos half of the determinism contract:
// the same chaos seed must yield a byte-identical observability export
// (Chrome trace + Prometheus text) at any -parallel level. Fault
// arrival times, victim choices, retry jitter, and restart backoff all
// ride on the Env's virtual clock and seeded PRNGs, so nothing about
// host scheduling may leak into the run.
func TestChaosDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos determinism replay in -short mode")
	}
	const runs = 4
	render := func(workers int) []byte {
		prev := harness.SetParallelism(workers)
		defer harness.SetParallelism(prev)
		results, err := harness.Map(runs, func(i int) (*MultiplexResult, error) {
			spec := chaosSpecFor(i + 1)
			return RunMultiplex(MultiplexConfig{
				Mode:        ModeMPS,
				Processes:   4,
				Completions: 16,
				Observe:     true,
				Chaos:       &spec,
			})
		})
		if err != nil {
			t.Fatalf("chaos run with %d workers: %v", workers, err)
		}
		var b bytes.Buffer
		for i, res := range results {
			fmt.Fprintf(&b, "# run %d: faults=%d failed=%d makespan=%s\n",
				i, res.Faults, res.Failed, res.Makespan)
			if err := obs.WriteChromeTrace(&b, res.Obs); err != nil {
				t.Fatalf("trace export: %v", err)
			}
			if err := obs.WritePrometheus(&b, res.Obs); err != nil {
				t.Fatalf("metrics export: %v", err)
			}
		}
		return b.Bytes()
	}
	seq := render(1)
	if len(seq) == 0 {
		t.Fatal("sequential export is empty")
	}
	par := render(4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("chaos export differs across -parallel levels (%d vs %d bytes)", len(seq), len(par))
	}
	if again := render(4); !bytes.Equal(par, again) {
		t.Fatal("repeated parallel chaos runs differ")
	}
}

// Open-loop arrivals ride through GPU context losses and worker
// kills: a destroyed engine is reloaded on the replacement context,
// and requests that fail terminally are counted, not fatal.
func TestOpenLoopUnderChaos(t *testing.T) {
	spec := fault.Spec{Seed: 1, Rate: 0.5, Kinds: []fault.Kind{fault.KindGPU, fault.KindWorker}}
	for _, mode := range []Mode{ModeTimeshare, ModeMPS, ModeMIG} {
		res, err := RunMultiplex(MultiplexConfig{Mode: mode, Processes: 4, Completions: 60, ArrivalRate: 0.4, Chaos: &spec})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if got := res.EndToEnd.N() + res.Failed; got != 60 {
			t.Errorf("%s: served %d + failed %d of 60 requests", mode, res.EndToEnd.N(), res.Failed)
		}
	}
}

// Phase-shift under chaos: the injector reaches the tenants' worker
// pools, and a completion whose retries are exhausted is counted, not
// fatal. Seed 7's schedule exhausts some: once reconfig faults have
// blacklisted every CPU worker slot, every arrival lands on a tenant's
// single worker or its GPU context, more often than a completion takes.
func TestPhaseShiftUnderChaos(t *testing.T) {
	spec := fault.Spec{Seed: 7, Rate: 0.5}
	SetChaos(&spec)
	t.Cleanup(func() { SetChaos(nil) })
	res, err := RunPhaseShift(PhaseShiftConfig{Mode: ModeTimeshare})
	if err != nil {
		t.Fatal(err)
	}
	completions, tenantKills := 0, 0
	for _, s := range res.Obs.Spans() {
		if s.Cat == "dfk" && s.Name == "task" && strings.HasPrefix(s.Attr("app"), "svc-") {
			completions++
		}
		if s.Cat == "fault" && s.Name == string(fault.KindWorker) && strings.HasPrefix(s.Attr("target"), "ten-") {
			tenantKills++
		}
	}
	if tenantKills == 0 {
		t.Error("no worker fault hit a tenant pool")
	}
	if res.Failed == 0 {
		t.Error("no completion failed terminally; the seed no longer exhausts retries")
	}
	if got := res.Latencies.N() + res.Failed; got != completions {
		t.Errorf("%d latencies + %d failed = %d, want %d completions",
			res.Latencies.N(), res.Failed, got, completions)
	}
}
