package core

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fault"
	"repro/internal/moldesign"
	"repro/internal/obs"
)

// Fig. 3 is drawn from the executors' run spans, so they must account
// for exactly the tasks the thinker collected: one closed span per
// simulation, training and inference, and none still running at the
// campaign's end (RunMolDesign fails if one is).
func TestMolDesignRunSpansMatchCollectedTasks(t *testing.T) {
	cfg := moldesign.DefaultConfig()
	cfg.InitialPool = 8
	cfg.CandidatePool = 700
	cfg.BatchSize = 4
	cfg.Rounds = 2
	chunks := (cfg.CandidatePool + cfg.InferChunk - 1) / cfg.InferChunk
	sims := cfg.InitialPool + cfg.Rounds*cfg.BatchSize
	for _, pipelined := range []bool{false, true} {
		res, err := runMolDesign(cfg, pipelined)
		if err != nil {
			t.Fatalf("pipelined=%v: %v", pipelined, err)
		}
		n := map[string]int{}
		for _, s := range res.Runs {
			if s.End < s.Start || s.End > res.Makespan {
				t.Errorf("pipelined=%v: run span %+v outside [start, makespan %v]", pipelined, s, res.Makespan)
			}
			n[moldesign.Phase(s.Attr("app"))]++
		}
		if n["simulation"] != sims || res.Report.Dataset != sims {
			t.Errorf("pipelined=%v: %d simulation spans, dataset %d, want %d", pipelined, n["simulation"], res.Report.Dataset, sims)
		}
		if !pipelined && (n["training"] != cfg.Rounds || n["inference"] != cfg.Rounds*chunks) {
			t.Errorf("training/inference spans = %d/%d, want %d/%d", n["training"], n["inference"], cfg.Rounds, cfg.Rounds*chunks)
		}
		// The pipelined thinker scores a full pool after every retrain.
		if pipelined && (n["training"] == 0 || n["inference"] != n["training"]*chunks) {
			t.Errorf("pipelined training/inference spans = %d/%d, want k/%d·k", n["training"], n["inference"], chunks)
		}
		total := 0
		for _, ph := range res.Phases {
			if ph.Tasks != n[ph.Phase] {
				t.Errorf("pipelined=%v: phase %s summary has %d tasks, spans %d", pipelined, ph.Phase, ph.Tasks, n[ph.Phase])
			}
			total += ph.Tasks
		}
		if total != len(res.Runs) {
			t.Errorf("pipelined=%v: phases cover %d of %d runs", pipelined, total, len(res.Runs))
		}
	}
}

// Under a dense fault schedule the campaign resubmits lost tasks and
// counts those lost for good instead of aborting: every simulation of
// the budget either joins the dataset or is counted failed.
func TestMolDesignUnderChaos(t *testing.T) {
	cfg := moldesign.DefaultConfig()
	budget := cfg.InitialPool + cfg.Rounds*cfg.BatchSize
	failed := 0
	t.Cleanup(func() { SetChaos(nil) })
	for _, seed := range []int64{1, 2, 7} {
		SetChaos(&fault.Spec{Seed: seed, Rate: 0.5})
		for _, pipelined := range []bool{false, true} {
			res, err := runMolDesign(cfg, pipelined)
			if err != nil {
				t.Fatalf("seed %d pipelined=%v: %v", seed, pipelined, err)
			}
			sum := 0
			for _, n := range res.Report.Failed {
				sum += n
			}
			if res.Failed != sum {
				t.Errorf("seed %d pipelined=%v: Failed = %d, per-phase counts sum to %d", seed, pipelined, res.Failed, sum)
			}
			if got := res.Report.Dataset + res.Report.Failed["simulation"]; got != budget {
				t.Errorf("seed %d pipelined=%v: dataset %d + failed simulations %d != budget %d",
					seed, pipelined, res.Report.Dataset, res.Report.Failed["simulation"], budget)
			}
			failed += res.Failed
		}
	}
	if failed == 0 {
		t.Error("no task was lost for good; the test no longer covers the failure path")
	}
}

func TestRunMolDesignRejectsBadConfig(t *testing.T) {
	cfg := moldesign.DefaultConfig()
	cfg.CandidatePool = 10 // smaller than the default batch of 16
	if _, err := RunMolDesign(cfg); err == nil {
		t.Error("batch larger than the candidate pool accepted")
	}
	if _, err := RunMolDesignPipelined(cfg); err == nil {
		t.Error("pipelined: batch larger than the candidate pool accepted")
	}
}

// Property: union yields sorted, disjoint intervals, and together with
// gaps it tiles the window exactly.
func TestQuickUnionGapsTile(t *testing.T) {
	f := func(raw []uint8) bool {
		spans := make([]obs.Span, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			a := time.Duration(raw[i]) * time.Second
			b := a + time.Duration(raw[i+1]%10)*time.Second
			spans = append(spans, obs.Span{Start: a, End: b})
		}
		window := 300 * time.Second
		cov, covered := union(spans, window)
		var sum, idle time.Duration
		for i, iv := range cov {
			if i > 0 && iv.start <= cov[i-1].end {
				return false
			}
			sum += iv.end - iv.start
		}
		for _, g := range gaps(cov, window) {
			idle += g.end - g.start
		}
		return sum == covered && covered+idle == window
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionMergesOverlaps(t *testing.T) {
	s := time.Second
	got, covered := union([]obs.Span{
		{Start: 0, End: 2 * s},
		{Start: s, End: 3 * s},
		{Start: 5 * s, End: 9 * s}, // clipped to the window
	}, 6*s)
	want := []interval{{0, 3 * s}, {5 * s, 6 * s}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || covered != 4*s {
		t.Fatalf("union = %v covering %v, want %v covering 4s", got, covered, want)
	}
}

func TestUnionIgnoresZeroSpans(t *testing.T) {
	s := time.Second
	got, covered := union([]obs.Span{{Start: s, End: s}, {Start: 5 * s, End: 5 * s}}, 6*s)
	if len(got) != 0 || covered != 0 {
		t.Fatalf("union = %v covering %v, want nothing", got, covered)
	}
}

func TestGaps(t *testing.T) {
	s := time.Second
	cov, _ := union([]obs.Span{{Start: s, End: 2 * s}, {Start: 4 * s, End: 5 * s}}, 6*s)
	g := gaps(cov, 6*s)
	want := []interval{{0, s}, {2 * s, 4 * s}, {5 * s, 6 * s}}
	if len(g) != len(want) {
		t.Fatalf("gaps = %v", g)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("gaps = %v, want %v", g, want)
		}
	}
	if g := gaps(nil, 0); len(g) != 0 {
		t.Fatalf("empty window gaps = %v", g)
	}
}

// runSpan is a closed htex run span of the given colmena method.
func runSpan(method string, start, end time.Duration) obs.Span {
	return obs.Span{Cat: "htex", Name: "run", Start: start, End: end,
		Attrs: []obs.Attr{obs.String("app", method)}}
}

func TestGapsFullyCovered(t *testing.T) {
	s := time.Second
	// A fully covered window has no gaps; an empty one is never busy.
	full := &Fig3Result{Makespan: 10 * s, Runs: []obs.Span{runSpan("train", 0, 10*s)}}
	full.summarize()
	if full.GPUBusyFraction != 1 || full.GPUIdleGaps != 0 {
		t.Errorf("full window: busy %v with %d gaps", full.GPUBusyFraction, full.GPUIdleGaps)
	}
	empty := &Fig3Result{}
	empty.summarize()
	if empty.GPUBusyFraction != 0 || empty.GPUIdleGaps != 0 || len(empty.Phases) != 0 {
		t.Errorf("empty run: %+v", empty)
	}
}

func TestBusyFraction(t *testing.T) {
	s := time.Second
	res := &Fig3Result{Makespan: 10 * s, Runs: []obs.Span{
		runSpan("infer", 4*s, 5*s),
		runSpan("train", 0, 2*s),
		runSpan("train", s, 3*s),     // overlap counts once
		runSpan("simulate", 0, 10*s), // CPU only: not GPU busy time
	}}
	res.summarize()
	// GPU busy over [0,3) and [4,5): idle [3,4) and [5,10).
	if res.GPUBusyFraction != 0.4 || res.GPUIdleGaps != 2 {
		t.Errorf("GPU busy %v with %d gaps, want 0.4 with 2", res.GPUBusyFraction, res.GPUIdleGaps)
	}
}

func TestSummarize(t *testing.T) {
	s := time.Second
	res := &Fig3Result{Makespan: 10 * s, Runs: []obs.Span{
		runSpan("infer", 4*s, 5*s),
		runSpan("train", 0, 2*s),
		runSpan("train", s, 3*s), // overlap counts once in Busy
		runSpan("simulate", 0, 10*s),
	}}
	res.summarize()
	want := []PhaseSummary{
		{Phase: "simulation", Tasks: 1, Busy: 10 * s, Summed: 10 * s},
		{Phase: "training", Tasks: 2, Busy: 3 * s, Summed: 4 * s},
		{Phase: "inference", Tasks: 1, Busy: s, Summed: s},
	}
	if len(res.Phases) != len(want) {
		t.Fatalf("phases = %+v", res.Phases)
	}
	for i := range want {
		if res.Phases[i] != want[i] {
			t.Errorf("phase %d = %+v, want %+v", i, res.Phases[i], want[i])
		}
	}
}
