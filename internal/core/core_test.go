package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/moldesign"
)

// runMatrix runs the Fig. 4/5 experiment for one mode across process
// counts (with a reduced completion count to keep tests quick; ratios
// are insensitive to it).
func runMatrix(t *testing.T, mode Mode, ns []int, completions int) map[int]*MultiplexResult {
	t.Helper()
	out := make(map[int]*MultiplexResult, len(ns))
	for _, n := range ns {
		r, err := RunMultiplex(MultiplexConfig{Mode: mode, Processes: n, Completions: completions})
		if err != nil {
			t.Fatalf("%s n=%d: %v", mode, n, err)
		}
		out[n] = r
	}
	return out
}

// TestFig4CompletionTimeShapes checks the headline claims of §5.2:
// spatial multiplexing cuts total completion time by ~60% at four
// processes (2.5× throughput); even time-sharing helps; MPS ≥ MIG at
// 3 and 4 processes, MPS ≈ MIG at 2.
func TestFig4CompletionTimeShapes(t *testing.T) {
	const completions = 40
	ts := runMatrix(t, ModeTimeshare, []int{1, 4}, completions)
	mps := runMatrix(t, ModeMPS, []int{2, 3, 4}, completions)
	mig := runMatrix(t, ModeMIG, []int{2, 3, 4}, completions)

	single := ts[1].Makespan
	// Headline: ≥55% lower completion time with 4-way MPS (paper: up
	// to 60%).
	reduction := 1 - mps[4].Makespan.Seconds()/single.Seconds()
	if reduction < 0.55 || reduction > 0.70 {
		t.Errorf("MPS-4 completion reduction = %.0f%% (paper: ~60%%)", reduction*100)
	}
	// Headline: ≈2.5× throughput (paper: 250%).
	gain := mps[4].Throughput / ts[1].Throughput
	if gain < 2.2 || gain > 3.0 {
		t.Errorf("MPS-4 throughput gain = %.2fx (paper: ~2.5x)", gain)
	}
	// Even time-sharing beats one process (the host gap gets filled).
	if ts[4].Makespan >= single {
		t.Errorf("timeshare-4 %v not better than single %v", ts[4].Makespan, single)
	}
	// But spatial sharing clearly beats time-sharing.
	if float64(mps[4].Makespan) > 0.8*float64(ts[4].Makespan) {
		t.Errorf("MPS-4 %v vs timeshare-4 %v: spatial advantage missing", mps[4].Makespan, ts[4].Makespan)
	}
	// MPS ≈ MIG at two processes (3g.40gb holds half the bandwidth).
	ratio2 := mig[2].Makespan.Seconds() / mps[2].Makespan.Seconds()
	if ratio2 < 0.95 || ratio2 > 1.10 {
		t.Errorf("MIG-2/MPS-2 = %.2f, want ≈1", ratio2)
	}
	// MPS beats MIG at three (1/3 of bandwidth vs hard 2/8 slice).
	if float64(mig[3].Makespan) < 1.15*float64(mps[3].Makespan) {
		t.Errorf("MIG-3 %v vs MPS-3 %v: quantization penalty missing", mig[3].Makespan, mps[3].Makespan)
	}
	// MPS beats MIG at four as well.
	if mig[4].Makespan <= mps[4].Makespan {
		t.Errorf("MIG-4 %v should trail MPS-4 %v", mig[4].Makespan, mps[4].Makespan)
	}
	// All multiplexed runs still beat the single process.
	for n, r := range mig {
		if r.Makespan >= single {
			t.Errorf("MIG-%d %v not better than single %v", n, r.Makespan, single)
		}
	}
}

// TestFig5LatencyShapes checks the per-inference latency claims:
// time-sharing latency grows ≈linearly with process count; MPS/MIG
// grow slowly and sit ≈44–60% below time-sharing at four processes.
func TestFig5LatencyShapes(t *testing.T) {
	const completions = 40
	ts := runMatrix(t, ModeTimeshare, []int{1, 2, 4}, completions)
	mps := runMatrix(t, ModeMPS, []int{4}, completions)
	mig := runMatrix(t, ModeMIG, []int{4}, completions)

	l1 := ts[1].MeanLatency().Seconds()
	// Linear-ish growth under time-sharing.
	if g := ts[2].MeanLatency().Seconds() / l1; g < 1.5 || g > 2.5 {
		t.Errorf("timeshare latency growth at 2 procs = %.2fx", g)
	}
	if g := ts[4].MeanLatency().Seconds() / l1; g < 3.0 || g > 4.5 {
		t.Errorf("timeshare latency growth at 4 procs = %.2fx", g)
	}
	// Spatial multiplexing keeps latency far below time-sharing.
	drop := 1 - mps[4].MeanLatency().Seconds()/ts[4].MeanLatency().Seconds()
	if drop < 0.40 || drop > 0.70 {
		t.Errorf("MPS-4 latency %.0f%% below timeshare (paper: 44%%)", drop*100)
	}
	if mig[4].MeanLatency() >= ts[4].MeanLatency() {
		t.Errorf("MIG-4 latency %v not below timeshare %v", mig[4].MeanLatency(), ts[4].MeanLatency())
	}
}

// TestFig2SweepRejectsBadPercent: a percentage outside 1..100 is an
// error naming the value, returned before any cell runs.
func TestFig2SweepRejectsBadPercent(t *testing.T) {
	for _, pct := range []int{0, -5, 101} {
		_, err := Fig2Sweep([]int{50, pct})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("percentage %d ", pct)) {
			t.Errorf("Fig2Sweep(50, %d): err = %v, want one naming %d", pct, err, pct)
		}
	}
}

// TestFig2SweepShape checks the SM sweep: steep improvement up to
// ~20 SMs, flat beyond; 13B ≈ 2× 7B; CPU ≈ 40× slower than GPU.
func TestFig2SweepShape(t *testing.T) {
	res, err := Fig2Sweep([]int{5, 10, 19, 50, 100})
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string]map[int]time.Duration{}
	for _, p := range res.Points {
		if byModel[p.Model] == nil {
			byModel[p.Model] = map[int]time.Duration{}
		}
		byModel[p.Model][p.Percent] = p.Latency
	}
	for _, m := range []string{"llama2-7b", "llama2-13b"} {
		c := byModel[m]
		if c[5] < 2*c[100] {
			t.Errorf("%s: 5%% latency %v not ≥2× full %v", m, c[5], c[100])
		}
		if c[10] <= c[19] {
			t.Errorf("%s: no improvement 10%%→19%%", m)
		}
		flat := c[19].Seconds() / c[100].Seconds()
		if flat > 1.06 {
			t.Errorf("%s: not flat past knee: 19%%=%v 100%%=%v", m, c[19], c[100])
		}
	}
	// 13B ≈ 2× the 7B latency at full GPU.
	r := byModel["llama2-13b"][100].Seconds() / byModel["llama2-7b"][100].Seconds()
	if r < 1.8 || r > 2.2 {
		t.Errorf("13B/7B = %.2f", r)
	}
	// CPU baselines as quoted (§3.4): 180 s and 360 s, ≈40× the GPU.
	if res.CPUBaselines["llama2-7b"] != 180*time.Second {
		t.Errorf("7B CPU = %v", res.CPUBaselines["llama2-7b"])
	}
	if res.CPUBaselines["llama2-13b"] != 360*time.Second {
		t.Errorf("13B CPU = %v", res.CPUBaselines["llama2-13b"])
	}
	speedup := res.CPUBaselines["llama2-7b"].Seconds() / byModel["llama2-7b"][100].Seconds()
	if speedup < 35 || speedup > 45 {
		t.Errorf("CPU/GPU speedup = %.1f (paper: ~40x)", speedup)
	}
}

func TestColdStartBreakdown(t *testing.T) {
	rows, err := RunColdStart(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Total != r.WorkerInit+r.ContextInit+r.ModelLoad {
			t.Errorf("%s: components %v+%v+%v != total %v", r.Scenario, r.WorkerInit, r.ContextInit, r.ModelLoad, r.Total)
		}
	}
	// The paper's headline: loading LLaMa-2-13B takes up to 10 s.
	thirteen := rows[2]
	if thirteen.ModelLoad < 10*time.Second || thirteen.ModelLoad > 11*time.Second {
		t.Errorf("13B fp32 load = %v (paper: ~10 s)", thirteen.ModelLoad)
	}
	// fp16 loads are cheaper than fp32.
	if rows[0].ModelLoad >= rows[1].ModelLoad {
		t.Errorf("fp16 %v not cheaper than fp32 %v", rows[0].ModelLoad, rows[1].ModelLoad)
	}
}

func TestReconfigCosts(t *testing.T) {
	rows, err := RunReconfig(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	mps, cached, mig := rows[0], rows[1], rows[2]
	// §6: MPS repartition with an fp32 LLM lands in the 5–20 s band.
	if mps.Downtime < 5*time.Second || mps.Downtime > 20*time.Second {
		t.Errorf("MPS repartition = %v", mps.Downtime)
	}
	// §7: the weight cache removes the reload.
	if cached.Downtime >= mps.Downtime/2 {
		t.Errorf("cache %v barely below restart %v", cached.Downtime, mps.Downtime)
	}
	// §6: MIG adds the reset (1–2 s) on top of the restart path.
	extra := mig.Downtime - mps.Downtime
	if extra < time.Second || extra > 3*time.Second {
		t.Errorf("MIG extra cost = %v (paper: 1–2 s)", extra)
	}
}

func TestTable1Quantified(t *testing.T) {
	rows, _, err := RunTable1(false, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Technique] = r
	}
	// Memory isolation: only MIG.
	for name, r := range byName {
		want := name == string(ModeMIG)
		if r.MemoryIsolated != want {
			t.Errorf("%s memory isolated = %v", name, r.MemoryIsolated)
		}
	}
	// Spatial techniques utilize the GPU better than time-sharing.
	tsU := byName["timeshare"].Utilization
	if byName["mps"].Utilization <= tsU {
		t.Errorf("MPS utilization %.2f not above timeshare %.2f", byName["mps"].Utilization, tsU)
	}
	// Isolation: MIG's victim CoV is the lowest; time-sharing's the
	// highest among hardware-shared modes.
	if byName["mig"].VictimCoV > 0.05 {
		t.Errorf("MIG victim CoV = %.3f, want ~0", byName["mig"].VictimCoV)
	}
	if byName["timeshare"].VictimCoV < 2*byName["mig"].VictimCoV+0.05 {
		t.Errorf("timeshare CoV %.3f vs MIG %.3f: interference missing", byName["timeshare"].VictimCoV, byName["mig"].VictimCoV)
	}
	// Reconfiguration: timeshare/default have nothing to reconfigure;
	// MIG costs more than MPS; vGPU (VM reboot) costs the most.
	if byName["timeshare"].ReconfigDowntime != 0 || byName["mps-default"].ReconfigDowntime != 0 {
		t.Error("non-zero reconfig for unpartitioned modes")
	}
	if byName["mig"].ReconfigDowntime <= byName["mps"].ReconfigDowntime {
		t.Error("MIG reconfig should exceed MPS")
	}
	if byName["vgpu"].ReconfigDowntime <= byName["mig"].ReconfigDowntime {
		t.Error("vGPU reconfig should exceed MIG")
	}
	// Software column matches Table 1.
	if byName["mps"].Software != "nvidia-cuda-mps-control" || byName["mig"].Software != "nvidia-smi" {
		t.Error("software column mismatch")
	}
}

func TestRunMolDesignFig3(t *testing.T) {
	cfg := moldesign.DefaultConfig()
	cfg.InitialPool = 16
	cfg.CandidatePool = 1000
	cfg.BatchSize = 8
	cfg.Rounds = 2
	res, err := RunMolDesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Report.Dataset != 16+2*8 {
		t.Fatalf("report = %+v", res.Report)
	}
	if res.GPUBusyFraction <= 0 || res.GPUBusyFraction > 0.5 {
		t.Errorf("GPU busy fraction = %.2f (Fig. 3 shows large idle time)", res.GPUBusyFraction)
	}
	if res.GPUIdleGaps < 2 {
		t.Errorf("idle gaps = %d", res.GPUIdleGaps)
	}
	if len(res.Runs) == 0 {
		t.Error("no run spans")
	}
}

func TestMultiplexValidation(t *testing.T) {
	if _, err := RunMultiplex(MultiplexConfig{Mode: "bogus", Processes: 2, Completions: 4}); err == nil {
		t.Error("bogus mode accepted")
	}
	if _, err := RunMultiplex(MultiplexConfig{Mode: "bogus", Processes: 4, Completions: 60, ArrivalRate: 0.4}); err == nil || !strings.Contains(err.Error(), "core: unknown mode") {
		t.Errorf("open loop, bogus mode: err = %v", err)
	}
	if _, err := MIGLayoutFor(5); err == nil {
		t.Error("MIG layout for 5 accepted")
	}
}

func TestVGPUMultiplexRuns(t *testing.T) {
	r, err := RunMultiplex(MultiplexConfig{Mode: ModeVGPU, Processes: 2, Completions: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan <= 0 || r.Latencies.N() != 8 {
		t.Fatalf("result = %+v", r)
	}
}

// RunMultiplex is fully deterministic: identical configs yield
// identical results.
func TestMultiplexDeterminism(t *testing.T) {
	run := func() (time.Duration, time.Duration) {
		r, err := RunMultiplex(MultiplexConfig{Mode: ModeMPS, Processes: 3, Completions: 12})
		if err != nil {
			t.Fatal(err)
		}
		return r.Makespan, r.MeanLatency()
	}
	m1, l1 := run()
	m2, l2 := run()
	if m1 != m2 || l1 != l2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", m1, l1, m2, l2)
	}
}

// Five 7B services cannot fit one 80 GB A100: the experiment surfaces
// the OOM instead of silently shrinking.
func TestMultiplexFiveProcessesOOM(t *testing.T) {
	_, err := RunMultiplex(MultiplexConfig{Mode: ModeMPS, Processes: 5, Completions: 5})
	if err == nil {
		t.Fatal("five instances fit; memory model broken")
	}
}

// Preload (model loading) is excluded from the measured makespan.
func TestMultiplexPreloadExcluded(t *testing.T) {
	r, err := RunMultiplex(MultiplexConfig{Mode: ModeMPS, Processes: 2, Completions: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Preload includes worker init (2 s), context init (0.8 s) and the
	// fp16 load (~2.7 s).
	if r.PreloadTime < 5*time.Second {
		t.Fatalf("preload = %v", r.PreloadTime)
	}
	// The measured makespan covers only the 4 completions: 2 per
	// worker at ~4.5 s each ≈ 9 s.
	if r.Makespan > 12*time.Second {
		t.Fatalf("makespan contains cold start: %v", r.Makespan)
	}
}

// Utilization ordering across techniques at 4 processes (Fig. 4's
// companion claim).
func TestUtilizationOrdering(t *testing.T) {
	util := func(mode Mode) float64 {
		r, err := RunMultiplex(MultiplexConfig{Mode: mode, Processes: 4, Completions: 12})
		if err != nil {
			t.Fatal(err)
		}
		return r.Utilization
	}
	ts, mps, mig := util(ModeTimeshare), util(ModeMPS), util(ModeMIG)
	if !(mps > mig && mig > ts) {
		t.Fatalf("utilization ordering: ts=%.2f mig=%.2f mps=%.2f", ts, mig, mps)
	}
}

// The Fig.-3 pipelining remark: same budget, shorter makespan, higher
// GPU utilization.
func TestRunMolDesignPipelined(t *testing.T) {
	cfg := moldesign.DefaultConfig()
	cfg.InitialPool = 16
	cfg.CandidatePool = 1000
	cfg.BatchSize = 8
	cfg.Rounds = 2
	sync, err := RunMolDesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	piped, err := RunMolDesignPipelined(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if piped.Report.Dataset != sync.Report.Dataset {
		t.Fatalf("budgets differ: %d vs %d", piped.Report.Dataset, sync.Report.Dataset)
	}
	if piped.Makespan >= sync.Makespan {
		t.Errorf("pipelined %v not faster than sync %v", piped.Makespan, sync.Makespan)
	}
	if piped.GPUBusyFraction <= sync.GPUBusyFraction {
		t.Errorf("pipelined GPU busy %.3f not above sync %.3f", piped.GPUBusyFraction, sync.GPUBusyFraction)
	}
}

// Open-loop arrivals (the §5.2 multi-client chatbot scenario): at an
// offered load between time-sharing's capacity (~0.27 req/s) and
// MPS's (~0.59 req/s), spatial multiplexing is the difference between
// a stable service and an unbounded backlog.
func TestOpenLoopStabilityCrossover(t *testing.T) {
	ts, err := RunMultiplex(MultiplexConfig{Mode: ModeTimeshare, Processes: 4, Completions: 60, ArrivalRate: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	mps, err := RunMultiplex(MultiplexConfig{Mode: ModeMPS, Processes: 4, Completions: 60, ArrivalRate: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if ts.Stable {
		t.Errorf("timeshare stable at 0.4 req/s with capacity %.3f", ts.Throughput)
	}
	if !mps.Stable {
		t.Errorf("MPS unstable at 0.4 req/s with capacity %.3f", mps.Throughput)
	}
	// MPS's p99 stays near service latency; timeshare's blows up.
	if mps.EndToEnd.Percentile(99) > 20*time.Second {
		t.Errorf("MPS p99 = %v", mps.EndToEnd.Percentile(99))
	}
	if ts.EndToEnd.Percentile(99) < 60*time.Second {
		t.Errorf("timeshare p99 = %v (backlog missing)", ts.EndToEnd.Percentile(99))
	}
	// Determinism.
	again, err := RunMultiplex(MultiplexConfig{Mode: ModeMPS, Processes: 4, Completions: 60, ArrivalRate: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if again.Makespan != mps.Makespan {
		t.Errorf("open loop nondeterministic: %v vs %v", again.Makespan, mps.Makespan)
	}
}

// Below every technique's capacity, all are stable.
func TestOpenLoopAllStableAtLowLoad(t *testing.T) {
	for _, mode := range []Mode{ModeTimeshare, ModeMPS, ModeMIG} {
		r, err := RunMultiplex(MultiplexConfig{Mode: mode, Processes: 4, Completions: 30, ArrivalRate: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Stable {
			t.Errorf("%s unstable at 0.15 req/s", mode)
		}
	}
}
