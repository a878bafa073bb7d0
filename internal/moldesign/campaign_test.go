package moldesign

import (
	"sort"
	"testing"
	"time"

	"repro/internal/colmena"
	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/faas/htex"
	"repro/internal/faas/provider"
	"repro/internal/gpuctl"
	"repro/internal/obs"
	"repro/internal/simgpu"
)

// campaignRig is the paper's testbed in miniature: a 24-core node with
// GPUs, a cpu executor with 16 workers, and a gpu executor. The
// returned collector records one htex run span per task.
func campaignRig(t *testing.T, cfg Config) (*devent.Env, *Campaign, *obs.Collector, *simgpu.Device) {
	t.Helper()
	env := devent.NewEnv()
	dev, err := simgpu.NewDevice(env, "gpu0", simgpu.A100SXM440GB())
	if err != nil {
		t.Fatal(err)
	}
	node := gpuctl.NewNode(env, dev)
	local := provider.NewLocal(env, node)
	cpu, err := htex.New(env, htex.Config{Label: "cpu", MaxWorkers: 16, Provider: local})
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := htex.New(env, htex.Config{
		Label:                 "gpu",
		AvailableAccelerators: []string{"0"},
		Provider:              local,
	})
	if err != nil {
		t.Fatal(err)
	}
	dfk := faas.NewDFK(env, faas.Config{Retries: 1}, cpu, gpu)
	if err := dfk.Start(); err != nil {
		t.Fatal(err)
	}
	ts := colmena.NewTaskServer(dfk, colmena.NewQueues(env))
	return env, New(cfg, ts, "cpu", "gpu"), dfk.Collector(), dev
}

// phaseRuns returns the collector's htex run spans of the given
// campaign phases.
func phaseRuns(c *obs.Collector, phases ...string) []obs.Span {
	var out []obs.Span
	for _, s := range c.Spans() {
		if s.Cat != "htex" || s.Name != "run" {
			continue
		}
		for _, ph := range phases {
			if Phase(s.Attr("app")) == ph {
				out = append(out, s)
			}
		}
	}
	return out
}

// coverage returns the time in [0, to) that the spans cover, counting
// overlaps once, and the number of idle gaps they leave.
func coverage(spans []obs.Span, to time.Duration) (covered time.Duration, gaps int) {
	spans = append([]obs.Span(nil), spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var cursor time.Duration
	for _, s := range spans {
		if s.End <= s.Start {
			continue
		}
		if s.Start > cursor {
			gaps++
		}
		if s.End > cursor {
			covered += s.End - max(s.Start, cursor)
			cursor = s.End
		}
	}
	if cursor < to {
		gaps++
	}
	return covered, gaps
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.InitialPool = 16
	cfg.CandidatePool = 1000
	cfg.BatchSize = 8
	cfg.Rounds = 3
	return cfg
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"default", func(*Config) {}, true},
		{"no rounds", func(c *Config) { c.Rounds = 0 }, true},
		{"batch equals pool", func(c *Config) { c.BatchSize, c.CandidatePool = 10, 10 }, true},
		{"batch exceeds pool", func(c *Config) { c.BatchSize, c.CandidatePool = 16, 10 }, false},
		{"negative pool", func(c *Config) { c.CandidatePool = -5 }, false},
		{"zero batch", func(c *Config) { c.BatchSize = 0 }, false},
		{"zero initial pool", func(c *Config) { c.InitialPool = 0 }, false},
		{"zero infer chunk", func(c *Config) { c.InferChunk = 0 }, false},
		{"zero epochs", func(c *Config) { c.TrainEpochs = 0 }, false},
		{"negative rounds", func(c *Config) { c.Rounds = -1 }, false},
	} {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestCampaignActiveLearningBeatsRandom(t *testing.T) {
	env, c, _, _ := campaignRig(t, smallConfig())
	var rep *Report
	env.Spawn("thinker", func(p *devent.Proc) {
		r, err := c.Run(p)
		if err != nil {
			t.Error(err)
			return
		}
		rep = r
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("no report")
	}
	if rep.Dataset != 16+3*8 {
		t.Fatalf("dataset = %d", rep.Dataset)
	}
	// Selection quality: every round's selected batch should have a
	// much higher mean IP than the pool average.
	for i, mean := range rep.RoundBatchMeanIP {
		if mean <= rep.PoolMeanIP+0.3 {
			t.Errorf("round %d batch mean %.3f not above pool mean %.3f", i, mean, rep.PoolMeanIP)
		}
	}
	if rep.BestIP < rep.InitialBestIP {
		t.Errorf("best %.3f below initial %.3f", rep.BestIP, rep.InitialBestIP)
	}
	if rep.FinalRMSE > 0.25 {
		t.Errorf("emulator RMSE = %.3f", rep.FinalRMSE)
	}
	if rep.Makespan <= 0 {
		t.Error("zero makespan")
	}
}

// Fig. 3's observation: the trace shows all three phases, and the GPU
// has substantial idle time while simulations run.
func TestCampaignTraceShowsPhasesAndGPUIdle(t *testing.T) {
	env, c, col, dev := campaignRig(t, smallConfig())
	var makespan time.Duration
	env.Spawn("thinker", func(p *devent.Proc) {
		if _, err := c.Run(p); err != nil {
			t.Error(err)
			return
		}
		makespan = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ph := range Phases {
		if len(phaseRuns(col, ph)) == 0 {
			t.Errorf("missing %s spans", ph)
		}
	}
	covered, gaps := coverage(phaseRuns(col, "training", "inference"), makespan)
	busy := float64(covered) / float64(makespan)
	if busy > 0.5 {
		t.Errorf("GPU busy fraction %.2f — expected large idle gaps", busy)
	}
	if busy <= 0 {
		t.Error("GPU never busy")
	}
	// Device-level accounting agrees that the GPU is mostly idle.
	if u := dev.Utilization(0, makespan); u > 0.5 {
		t.Errorf("device utilization %.2f", u)
	}
	// There are real gaps between GPU bursts (the "white lines" of
	// Fig. 3).
	if gaps < 3 {
		t.Errorf("only %d GPU idle gaps", gaps)
	}
}

func TestCampaignDeterminism(t *testing.T) {
	runOnce := func() (float64, time.Duration) {
		env, c, _, _ := campaignRig(t, smallConfig())
		var best float64
		var mk time.Duration
		env.Spawn("thinker", func(p *devent.Proc) {
			rep, err := c.Run(p)
			if err != nil {
				t.Error(err)
				return
			}
			best, mk = rep.BestIP, rep.Makespan
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return best, mk
	}
	b1, m1 := runOnce()
	b2, m2 := runOnce()
	if b1 != b2 || m1 != m2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", b1, m1, b2, m2)
	}
}

func TestCampaignSimulationsRunInParallel(t *testing.T) {
	cfg := smallConfig()
	cfg.Rounds = 1
	env, c, col, _ := campaignRig(t, cfg)
	var makespan time.Duration
	env.Spawn("thinker", func(p *devent.Proc) {
		if _, err := c.Run(p); err != nil {
			t.Error(err)
		}
		makespan = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	sims := phaseRuns(col, "simulation")
	// 16 initial sims over 16 workers: the union coverage must be far
	// less than the summed durations (i.e., they overlapped).
	var sum time.Duration
	for _, s := range sims {
		sum += s.Duration()
	}
	if busy, _ := coverage(sims, makespan); busy >= sum/2 {
		t.Fatalf("simulations barely overlapped: busy=%v sum=%v", busy, sum)
	}
}

// The paper's Fig.-3 remark: pipelining the campaign raises
// accelerator utilization and shortens the makespan, at the same
// simulation budget.
func TestPipelinedCampaignOverlapsAndSpeedsUp(t *testing.T) {
	cfg := smallConfig()

	runMode := func(pipelined bool) (*Report, *obs.Collector) {
		env, c, col, _ := campaignRig(t, cfg)
		var rep *Report
		env.Spawn("thinker", func(p *devent.Proc) {
			var err error
			if pipelined {
				rep, err = c.RunPipelined(p)
			} else {
				rep, err = c.Run(p)
			}
			if err != nil {
				t.Error(err)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return rep, col
	}

	sync, _ := runMode(false)
	async, asyncCol := runMode(true)

	if async.Dataset != sync.Dataset {
		t.Fatalf("budgets differ: sync=%d async=%d", sync.Dataset, async.Dataset)
	}
	if async.Makespan >= sync.Makespan {
		t.Errorf("pipelined %v not faster than synchronous %v", async.Makespan, sync.Makespan)
	}
	// GPU work overlaps simulations: some instant has both kinds
	// active.
	gpu := phaseRuns(asyncCol, "training", "inference")
	sims := phaseRuns(asyncCol, "simulation")
	overlap := false
	for _, g := range gpu {
		for _, s := range sims {
			if g.Start < s.End && s.Start < g.End {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Error("no GPU/simulation overlap in the pipelined campaign")
	}
	// Selection quality is retained.
	for i, m := range async.RoundBatchMeanIP {
		if m <= async.PoolMeanIP {
			t.Errorf("pipelined batch %d mean %.3f not above pool mean %.3f", i, m, async.PoolMeanIP)
		}
	}
}

func TestPipelinedDeterminism(t *testing.T) {
	cfg := smallConfig()
	run := func() (float64, time.Duration) {
		env, c, _, _ := campaignRig(t, cfg)
		var best float64
		var mk time.Duration
		env.Spawn("thinker", func(p *devent.Proc) {
			rep, err := c.RunPipelined(p)
			if err != nil {
				t.Error(err)
				return
			}
			best, mk = rep.BestIP, rep.Makespan
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return best, mk
	}
	b1, m1 := run()
	b2, m2 := run()
	if b1 != b2 || m1 != m2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", b1, m1, b2, m2)
	}
}

// The control arm: greedy emulator-guided selection finds much better
// molecules than random selection at the same simulation budget.
func TestGreedySelectionBeatsRandomControl(t *testing.T) {
	run := func(random bool) float64 {
		cfg := smallConfig()
		cfg.RandomSelection = random
		env, c, _, _ := campaignRig(t, cfg)
		var mean float64
		env.Spawn("thinker", func(p *devent.Proc) {
			rep, err := c.Run(p)
			if err != nil {
				t.Error(err)
				return
			}
			var sum float64
			for _, m := range rep.RoundBatchMeanIP {
				sum += m
			}
			mean = sum / float64(len(rep.RoundBatchMeanIP))
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return mean
	}
	greedy := run(false)
	random := run(true)
	if greedy < random+0.5 {
		t.Fatalf("greedy %.3f not clearly above random %.3f", greedy, random)
	}
}
