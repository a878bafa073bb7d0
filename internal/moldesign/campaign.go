package moldesign

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/colmena"
	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// Config parameterizes the active-learning campaign (§3.1's seven-step
// loop).
type Config struct {
	// Seed makes the campaign fully reproducible.
	Seed int64
	// InitialPool is step (1): molecules simulated up front.
	InitialPool int
	// CandidatePool is the per-round pool scored by the emulator
	// (step 4).
	CandidatePool int
	// BatchSize is step (5): top-scored molecules simulated per round.
	BatchSize int
	// Rounds is the number of train→infer→simulate iterations.
	Rounds int
	// SimBase and SimSpread set the CPU cost of one simulation.
	SimBase   time.Duration
	SimSpread time.Duration
	// TrainEpochs sets emulator training cost (one kernel per epoch).
	TrainEpochs int
	// InferChunk is the scoring batch size (one kernel per chunk).
	InferChunk int
	// Lambda is the ridge regularizer.
	Lambda float64
	// RandomSelection replaces the greedy top-K pick with a uniform
	// random pick — the scientific control for the active learner.
	RandomSelection bool
}

// Validate rejects configurations the campaign cannot run: empty
// pools, batches or chunks, negative rounds, and a per-round batch
// larger than the candidate pool it is picked from.
func (cfg Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"InitialPool", cfg.InitialPool},
		{"CandidatePool", cfg.CandidatePool},
		{"BatchSize", cfg.BatchSize},
		{"InferChunk", cfg.InferChunk},
		{"TrainEpochs", cfg.TrainEpochs},
	} {
		if f.v < 1 {
			return fmt.Errorf("moldesign: %s = %d, must be at least 1", f.name, f.v)
		}
	}
	if cfg.Rounds < 0 {
		return fmt.Errorf("moldesign: Rounds = %d, must not be negative", cfg.Rounds)
	}
	if cfg.BatchSize > cfg.CandidatePool {
		return fmt.Errorf("moldesign: BatchSize %d exceeds CandidatePool %d", cfg.BatchSize, cfg.CandidatePool)
	}
	return nil
}

// Phases lists the campaign's Fig. 3 phases in table order.
var Phases = []string{"simulation", "training", "inference"}

// Phase maps a campaign method (a task's app name) to its Fig. 3
// phase, or "" if the method is not one of the campaign's.
func Phase(method string) string {
	switch method {
	case "simulate":
		return "simulation"
	case "train":
		return "training"
	case "infer":
		return "inference"
	}
	return ""
}

// DefaultConfig returns a campaign sized like the paper's testbed run:
// enough work to show the Fig. 3 phase structure in minutes of
// virtual time.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		InitialPool:   32,
		CandidatePool: 4000,
		BatchSize:     16,
		Rounds:        4,
		SimBase:       4 * time.Second,
		SimSpread:     12 * time.Second,
		TrainEpochs:   64,
		InferChunk:    500,
		Lambda:        0.1,
	}
}

// Report is the campaign outcome.
type Report struct {
	// BestIP is the highest simulated IP found.
	BestIP float64
	// BestMolecule is its molecule.
	BestMolecule Molecule
	// InitialBestIP is the best from the random initial pool.
	InitialBestIP float64
	// RoundBatchMeanIP is the mean simulated IP of each round's
	// selected batch — rising values show the active learner working.
	// A round whose whole batch was lost (see Failed) reads NaN.
	RoundBatchMeanIP []float64
	// PoolMeanIP is the mean true IP over the candidate pool
	// (baseline for selection quality).
	PoolMeanIP float64
	// Dataset is the final training set size.
	Dataset int
	// FinalRMSE is the emulator error on the training set.
	FinalRMSE float64
	// Makespan is total campaign wall time.
	Makespan time.Duration
	// Failed counts, by phase, the tasks that still failed after
	// maxResubmits resubmissions (workers or GPU contexts lost under
	// fault injection); nil when none did.
	Failed map[string]int
}

// maxResubmits bounds how many times the thinker resubmits a task that
// came back failed, its DFK retries spent, before counting it as
// failed.
const maxResubmits = 2

// resubmit handles a failed result: it resubmits the task and reports
// true while resubmissions are left, and otherwise counts it in
// rep.Failed. It reports false for a successful result.
func (c *Campaign) resubmit(r colmena.Result, rep *Report) bool {
	if r.Err == nil {
		return false
	}
	if r.Attempt < maxResubmits {
		c.server.Resubmit(r)
		return true
	}
	if rep.Failed == nil {
		rep.Failed = map[string]int{}
	}
	rep.Failed[Phase(r.Method)]++
	return false
}

// collect receives n results from topic, in arrival order, and returns
// the successful ones. Lost tasks are resubmitted and awaited in turn
// (see resubmit); those that fail for good are left out.
func (c *Campaign) collect(p *devent.Proc, topic string, n int, rep *Report) []colmena.Result {
	var out []colmena.Result
	for n > 0 {
		rs := colmena.CollectN(p, c.server.Queues(), topic, n)
		n = 0
		for _, r := range rs {
			if c.resubmit(r, rep) {
				n++
			} else if r.Err == nil {
				out = append(out, r)
			}
		}
	}
	return out
}

// Campaign wires the methods onto a task server and runs the loop.
type Campaign struct {
	cfg    Config
	server *colmena.TaskServer
	mlp    models.MLP

	// pipelineScored buffers inference results between chunks of the
	// pipelined campaign (RunPipelined).
	pipelineScored []Scored
}

// New registers the campaign's methods ("simulate" on the CPU
// executor, "train" and "infer" on the GPU executor) with the task
// server. Each method runs as one task, so the executors' run spans
// are the campaign's timeline (see Phase).
func New(cfg Config, server *colmena.TaskServer, cpuExecutor, gpuExecutor string) *Campaign {
	c := &Campaign{cfg: cfg, server: server, mlp: models.MolDesignEmulator()}
	server.RegisterMethod("simulate", cpuExecutor, c.simulateMethod)
	server.RegisterMethod("train", gpuExecutor, c.trainMethod)
	server.RegisterMethod("infer", gpuExecutor, c.inferMethod)
	return c
}

// simulateMethod is the CPU-only quantum-chemistry stand-in.
func (c *Campaign) simulateMethod(inv *faas.Invocation) (any, error) {
	m := inv.Arg(0).(Molecule)
	inv.Compute(SimCost(c.cfg.Seed, m, c.cfg.SimBase, c.cfg.SimSpread))
	return SimResult{Molecule: m, IP: SimulatedIP(c.cfg.Seed, m)}, nil
}

// trainMethod fits the emulator; its GPU cost is one kernel per epoch
// over the dataset (TensorFlow-style step overhead dominates at this
// model size).
func (c *Campaign) trainMethod(inv *faas.Invocation) (any, error) {
	data := inv.Arg(0).([]SimResult)
	ctx, err := inv.GPU()
	if err != nil {
		return nil, err
	}
	perSample := c.mlp.TrainFLOPsPerSample()
	kernels := make([]simgpu.Kernel, c.cfg.TrainEpochs)
	for i := range kernels {
		kernels[i] = simgpu.Kernel{
			Name:     fmt.Sprintf("train-epoch-%d", i),
			FLOPs:    perSample * float64(len(data)),
			Bytes:    float64(c.mlp.Params() * 4 * 3),
			MaxSMs:   40,
			Overhead: 10 * time.Millisecond,
			Tag:      "training",
		}
	}
	if err := ctx.RunAll(inv.Proc(), kernels); err != nil {
		return nil, err
	}
	return FitRidge(data, c.cfg.Lambda)
}

// inferMethod scores a candidate chunk on the GPU.
func (c *Campaign) inferMethod(inv *faas.Invocation) (any, error) {
	em := inv.Arg(0).(*Emulator)
	chunk := inv.Arg(1).([]Molecule)
	ctx, err := inv.GPU()
	if err != nil {
		return nil, err
	}
	k := simgpu.Kernel{
		Name:     "infer-chunk",
		FLOPs:    c.mlp.ForwardFLOPsPerSample() * float64(len(chunk)),
		Bytes:    float64(c.mlp.Params() * 4),
		MaxSMs:   60,
		Overhead: 25 * time.Millisecond,
		Tag:      "inference",
	}
	if _, err := ctx.Run(inv.Proc(), k); err != nil {
		return nil, err
	}
	scored := make([]Scored, len(chunk))
	for i, m := range chunk {
		scored[i] = Scored{Molecule: m, Pred: em.Predict(m)}
	}
	return scored, nil
}

// Scored is a candidate with its emulator prediction.
type Scored struct {
	Molecule Molecule
	Pred     float64
}

// Run executes the batch-synchronous active-learning loop from the
// calling proc (the thinker's main agent). A task lost for good is
// counted in Report.Failed: a lost simulation leaves the dataset, a
// lost training keeps the previous emulator, and a lost scoring chunk
// leaves its candidates unranked; with no ranking at all, the round
// simulates the pool's first BatchSize candidates.
func (c *Campaign) Run(p *devent.Proc) (*Report, error) {
	cfg := c.cfg
	start := p.Now()
	rep := &Report{}

	// Step 1: initial random pool, simulated in parallel.
	next := 0
	pool := Pool(cfg.Seed, next, cfg.InitialPool)
	next += cfg.InitialPool
	for _, m := range pool {
		c.server.Submit("sim", "simulate", m)
	}
	var dataset []SimResult
	for _, r := range c.collect(p, "sim", cfg.InitialPool, rep) {
		res := r.Value.(SimResult)
		dataset = append(dataset, res)
		if res.IP > rep.InitialBestIP {
			rep.InitialBestIP = res.IP
			rep.BestIP, rep.BestMolecule = res.IP, res.Molecule
		}
	}

	// Steps 3–7: train, score candidates, simulate the most promising.
	var emulator *Emulator
	for round := 0; round < cfg.Rounds; round++ {
		c.server.Submit("train", "train", append([]SimResult(nil), dataset...))
		for _, r := range c.collect(p, "train", 1, rep) {
			emulator = r.Value.(*Emulator)
		}

		candidates := Pool(cfg.Seed, next, cfg.CandidatePool)
		next += cfg.CandidatePool
		var scored []Scored
		if emulator != nil {
			chunks := 0
			for lo := 0; lo < len(candidates); lo += cfg.InferChunk {
				hi := lo + cfg.InferChunk
				if hi > len(candidates) {
					hi = len(candidates)
				}
				c.server.Submit("infer", "infer", emulator, candidates[lo:hi])
				chunks++
			}
			for _, r := range c.collect(p, "infer", chunks, rep) {
				scored = append(scored, r.Value.([]Scored)...)
			}
		}
		if len(scored) == 0 {
			for _, m := range candidates[:cfg.BatchSize] {
				scored = append(scored, Scored{Molecule: m})
			}
		} else if cfg.RandomSelection {
			// Control arm: deterministic pseudo-random shuffle keyed
			// on the seed and round.
			for i := range scored {
				j := int(splitmix64(uint64(cfg.Seed)*1_000_003+uint64(round)*31+uint64(i)) % uint64(i+1))
				scored[i], scored[j] = scored[j], scored[i]
			}
		} else {
			sort.Slice(scored, func(i, j int) bool { return scored[i].Pred > scored[j].Pred })
		}

		batch := scored[:min(cfg.BatchSize, len(scored))]
		for _, s := range batch {
			c.server.Submit("sim", "simulate", s.Molecule)
		}
		var batchSum float64
		sims := c.collect(p, "sim", len(batch), rep)
		for _, r := range sims {
			res := r.Value.(SimResult)
			dataset = append(dataset, res)
			batchSum += res.IP
			if res.IP > rep.BestIP {
				rep.BestIP, rep.BestMolecule = res.IP, res.Molecule
			}
		}
		rep.RoundBatchMeanIP = append(rep.RoundBatchMeanIP, batchSum/float64(len(sims)))
	}

	// Baseline: mean true IP over a fresh pool of the same size.
	var sum float64
	base := Pool(cfg.Seed+7, 1_000_000, cfg.CandidatePool)
	for _, m := range base {
		sum += TrueIP(m)
	}
	rep.PoolMeanIP = sum / float64(len(base))
	rep.Dataset = len(dataset)
	if emulator != nil {
		rep.FinalRMSE = RMSE(emulator, dataset)
	}
	rep.Makespan = p.Now() - start
	return rep, nil
}
