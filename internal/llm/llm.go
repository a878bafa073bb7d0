// Package llm simulates large-language-model inference services (the
// paper's LLaMa-2 workload, §3.2) on simgpu devices.
//
// # Calibration
//
// The engine reduces a transformer decode step to one macro-kernel per
// model shard with three calibrated properties, chosen to reproduce
// the paper's measurements (see EXPERIMENTS.md for the trace back to
// each figure):
//
//   - TokenComputeTime: kernel compute duration once the decode's
//     limited parallelism is saturated. Fig. 2 reports ~4.5 s for a
//     20-token completion of LLaMa-2-7B (fp32, PyTorch eager) on a
//     full A100 — 225 ms per token, of which we attribute 180 ms to
//     GPU compute and 45 ms to the host-side gap below.
//   - SaturationSMs: the decode kernels' parallelism bound; Fig. 2
//     shows latency flat beyond ≈20 SMs, so batch-1 decode can use
//     only ~20 SMs (MaxSMs = 20).
//   - TokenMemFraction: the fraction of TokenComputeTime the kernel's
//     memory traffic takes at full-device bandwidth (weight streaming
//     plus cache pressure). This term produces the bandwidth
//     *quantization* that separates MPS from MIG at 3 and 4 processes:
//     MIG instances hold 2/8 or 1/8 of device bandwidth while MPS
//     clients share the full pool (1/3, 1/4 each) — exactly the
//     orderings in Figs. 4–5.
//   - HostGapPerToken: CPU-side sampling/tokenization time between
//     token kernels, during which the GPU is idle. This is why even
//     plain time-sharing beats a single process in Fig. 4.
package llm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/devent"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// ErrNotLoaded is returned when inference is attempted before Load.
var ErrNotLoaded = errors.New("llm: model not loaded")

// Config describes one LLM service instance.
type Config struct {
	// Spec is the transformer architecture.
	Spec models.TransformerSpec
	// BytesPerParam is weight precision (2 = fp16, 4 = fp32).
	BytesPerParam int
	// WeightBytesOverride, when non-zero, replaces the computed weight
	// footprint (e.g. int8 deployments squeezed into 1g.10gb MIG
	// instances).
	WeightBytesOverride int64
	// WorkspaceBytes is the per-instance activation/KV workspace.
	WorkspaceBytes int64
	// TokenComputeTime is decode compute time per token at saturation
	// for the whole model (summed across shards).
	TokenComputeTime time.Duration
	// SaturationSMs is the decode parallelism bound per shard.
	SaturationSMs int
	// TokenMemFraction sets per-token memory traffic: the kernel's
	// Bytes take TokenMemFraction × TokenComputeTime at full device
	// bandwidth.
	TokenMemFraction float64
	// HostGapPerToken is CPU time between token kernels.
	HostGapPerToken time.Duration
	// PrefillPerTokenFLOPsFrac scales prompt processing: prefill
	// parallelizes across tokens, so its per-token compute is cheap
	// relative to decode. Expressed as a fraction of decode per-token
	// compute with unbounded parallelism.
	PrefillPerTokenFLOPsFrac float64
	// CPUTokenTime is the CPU-only baseline per generated token.
	CPUTokenTime time.Duration
	// BatchSize is the number of sequences decoded together per step
	// (0 or 1 = unbatched). Batching multiplies per-step compute and
	// parallelism while streaming the weights once — the classic
	// in-process alternative to multiplexing, used by the
	// batching-vs-multiplexing ablation.
	BatchSize int
}

// Batch returns the effective batch size (≥1).
func (c Config) Batch() int {
	if c.BatchSize < 1 {
		return 1
	}
	return c.BatchSize
}

// LLaMa27B returns the calibrated 7-billion-parameter service config:
// 225 ms/token (4.5 s per 20-token completion) on a full A100, 180 s
// on CPU (the paper's 40× gap), saturating at 20 SMs.
func LLaMa27B() Config {
	return Config{
		Spec:                     models.LLaMa27B(),
		BytesPerParam:            2,
		WorkspaceBytes:           4 * simgpu.GB,
		TokenComputeTime:         180 * time.Millisecond,
		SaturationSMs:            20,
		TokenMemFraction:         0.4,
		HostGapPerToken:          45 * time.Millisecond,
		PrefillPerTokenFLOPsFrac: 0.05,
		CPUTokenTime:             9 * time.Second,
	}
}

// LLaMa213B returns the calibrated 13-billion-parameter config: twice
// the 7B cost (paper: 360 s CPU, ~9 s GPU per completion), usually
// sharded across two A100s.
func LLaMa213B() Config {
	c := LLaMa27B()
	c.Spec = models.LLaMa213B()
	c.TokenComputeTime = 360 * time.Millisecond
	c.HostGapPerToken = 90 * time.Millisecond
	c.CPUTokenTime = 18 * time.Second
	return c
}

// WeightBytes returns the model's weight footprint.
func (c Config) WeightBytes() int64 {
	if c.WeightBytesOverride > 0 {
		return c.WeightBytesOverride
	}
	bpp := c.BytesPerParam
	if bpp <= 0 {
		bpp = 2
	}
	return c.Spec.WeightBytes(bpp)
}

// FootprintBytes returns the per-instance device memory requirement.
func (c Config) FootprintBytes() int64 { return c.WeightBytes() + c.WorkspaceBytes }

// Engine is one loaded model service (one "function process" in FaaS
// terms). Weights may be sharded across several contexts for
// multi-GPU models (13B over two A100s in Fig. 2).
type Engine struct {
	cfg      Config
	shards   []*simgpu.Context
	kernels  []shardKernels // one per shard, built at load
	weights  []*simgpu.Segment
	work     []*simgpu.Segment
	loaded   bool
	loadTime time.Duration
}

// New creates an unloaded engine.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Loaded reports whether weights are resident.
func (e *Engine) Loaded() bool { return e.loaded }

// Resident reports whether the engine is loaded AND every weight
// shard still lives on a healthy context. A GPU context loss (ECC
// error) destroys shards out from under a warm engine; callers
// keeping engines in worker state should treat a non-resident engine
// as cold and reload it.
func (e *Engine) Resident() bool {
	if !e.loaded {
		return false
	}
	for _, s := range e.shards {
		if s.Destroyed() {
			return false
		}
	}
	return true
}

// LoadTime reports how long the last Load took.
func (e *Engine) LoadTime() time.Duration { return e.loadTime }

// Load allocates and transfers model weights and workspace onto the
// given contexts (one shard per context), blocking the proc for the
// end-to-end load (storage → host → device, DeviceSpec.HostLoadBW).
// This is the dominant cold-start component the paper measures at up
// to 10 s for LLaMa-2-13B (§6).
func (e *Engine) Load(p *devent.Proc, shards []*simgpu.Context, hostLoadBW float64) error {
	if len(shards) == 0 {
		return errors.New("llm: no shards")
	}
	start := p.Now()
	n := int64(len(shards))
	wBytes := e.cfg.WeightBytes() / n
	wkBytes := e.cfg.WorkspaceBytes / n
	var segs, work []*simgpu.Segment
	rollback := func() {
		for _, s := range append(segs, work...) {
			s.Release()
		}
	}
	for i, ctx := range shards {
		seg, err := ctx.Alloc(fmt.Sprintf("%s-weights-%d", e.cfg.Spec.Name, i), wBytes)
		if err != nil {
			rollback()
			return err
		}
		segs = append(segs, seg)
		wk, err := ctx.Alloc(fmt.Sprintf("%s-workspace-%d", e.cfg.Spec.Name, i), wkBytes)
		if err != nil {
			rollback()
			return err
		}
		work = append(work, wk)
		// Weight shards stream sequentially through host storage.
		ctx.TransferTagged(p, wBytes, hostLoadBW, "weights")
	}
	e.setShards(shards)
	e.weights = segs
	e.work = work
	e.loaded = true
	e.loadTime = p.Now() - start
	return nil
}

// AttachCached marks the engine loaded using pre-resident shared
// weight segments (the future-work weight cache, §7): only workspace
// is allocated and no transfer happens.
func (e *Engine) AttachCached(p *devent.Proc, shards []*simgpu.Context, cached []*simgpu.Segment) error {
	if len(shards) == 0 || len(cached) != len(shards) {
		return errors.New("llm: shard/cache mismatch")
	}
	start := p.Now()
	var work []*simgpu.Segment
	for i, ctx := range shards {
		wk, err := ctx.Alloc(fmt.Sprintf("%s-workspace-%d", e.cfg.Spec.Name, i), e.cfg.WorkspaceBytes/int64(len(shards)))
		if err != nil {
			for _, s := range work {
				s.Release()
			}
			return err
		}
		work = append(work, wk)
		ctx.Attach(cached[i])
	}
	e.setShards(shards)
	e.weights = nil // not owned
	e.work = work
	e.loaded = true
	e.loadTime = p.Now() - start
	return nil
}

// shardKernels are one shard's kernels, sized for its context once at
// load, so a decode step builds nothing: the decode kernel whole, and
// the prefill kernel but for its FLOPs, which scale with the prompt.
type shardKernels struct {
	decode     simgpu.Kernel
	prefill    simgpu.Kernel
	perSMFLOPS float64
}

// setShards makes the engine run on shards and builds their kernels.
// With batching the decode step's compute and usable parallelism scale
// with the batch while the weight traffic does not — one weight stream
// serves B sequences.
func (e *Engine) setShards(shards []*simgpu.Context) {
	n := float64(len(shards))
	b := e.cfg.Batch()
	computeSec := e.cfg.TokenComputeTime.Seconds() / n * float64(b)
	sat := e.cfg.SaturationSMs
	if sat <= 0 {
		sat = 20
	}
	memSec := e.cfg.TokenMemFraction * e.cfg.TokenComputeTime.Seconds() / n
	e.shards = shards
	e.kernels = make([]shardKernels, len(shards))
	for i, ctx := range shards {
		dev := ctx.SpecView()
		e.kernels[i] = shardKernels{
			decode: simgpu.Kernel{
				Name:   fmt.Sprintf("%s/decode-%d", e.cfg.Spec.Name, i),
				FLOPs:  computeSec / float64(b) * float64(sat) * dev.PerSMFLOPS * float64(b),
				Bytes:  memSec * dev.MemBW,
				MaxSMs: sat * b,
				Tag:    "decode",
			},
			prefill: simgpu.Kernel{
				Name:   fmt.Sprintf("%s/prefill-%d", e.cfg.Spec.Name, i),
				MaxSMs: 0, // prompt tokens parallelize across the device
				Tag:    "prefill",
			},
			perSMFLOPS: dev.PerSMFLOPS,
		}
	}
}

// prefillKernel returns the shard's prompt-processing kernel.
func (e *Engine) prefillKernel(shard, promptTokens int) simgpu.Kernel {
	sk := &e.kernels[shard]
	perTok := e.cfg.TokenComputeTime.Seconds() / float64(len(e.shards)) * e.cfg.PrefillPerTokenFLOPsFrac
	sat := e.cfg.SaturationSMs
	if sat <= 0 {
		sat = 20
	}
	k := sk.prefill
	k.FLOPs = float64(promptTokens) * perTok * float64(sat) * sk.perSMFLOPS
	return k
}

// Completion is the result of one text completion.
type Completion struct {
	PromptTokens int
	OutputTokens int
	Latency      time.Duration
	Start        time.Duration
	End          time.Duration
}

// Complete runs one text completion: prefill, then OutputTokens decode
// steps, each a GPU kernel per shard (pipelined shard-by-shard)
// followed by the host gap. With BatchSize > 1 each step still costs a
// full batched step (empty slots are not free); use CompleteBatch to
// fill all slots.
func (e *Engine) Complete(p *devent.Proc, promptTokens, outputTokens int) (Completion, error) {
	if !e.loaded {
		return Completion{}, ErrNotLoaded
	}
	start := p.Now()
	for s := range e.shards {
		if _, err := e.shards[s].Run(p, e.prefillKernel(s, promptTokens)); err != nil {
			return Completion{}, err
		}
	}
	for t := 0; t < outputTokens; t++ {
		for s := range e.shards {
			if _, err := e.shards[s].Run(p, e.kernels[s].decode); err != nil {
				return Completion{}, err
			}
		}
		p.Sleep(e.cfg.HostGapPerToken)
	}
	end := p.Now()
	return Completion{
		PromptTokens: promptTokens,
		OutputTokens: outputTokens,
		Latency:      end - start,
		Start:        start,
		End:          end,
	}, nil
}

// CompleteBatch decodes Config.BatchSize sequences together: one
// prefill per sequence slot, then OutputTokens batched decode steps.
// All batch members share start and end times (continuous batching is
// out of scope). It returns one Completion per sequence.
func (e *Engine) CompleteBatch(p *devent.Proc, promptTokens, outputTokens int) ([]Completion, error) {
	if !e.loaded {
		return nil, ErrNotLoaded
	}
	b := e.cfg.Batch()
	start := p.Now()
	for s := range e.shards {
		if _, err := e.shards[s].Run(p, e.prefillKernel(s, promptTokens*b)); err != nil {
			return nil, err
		}
	}
	for t := 0; t < outputTokens; t++ {
		for s := range e.shards {
			if _, err := e.shards[s].Run(p, e.kernels[s].decode); err != nil {
				return nil, err
			}
		}
		p.Sleep(e.cfg.HostGapPerToken)
	}
	end := p.Now()
	out := make([]Completion, b)
	for i := range out {
		out[i] = Completion{
			PromptTokens: promptTokens,
			OutputTokens: outputTokens,
			Latency:      end - start,
			Start:        start,
			End:          end,
		}
	}
	return out, nil
}

// Unload releases weights and workspace (process shutdown without
// context destruction).
func (e *Engine) Unload() {
	for _, s := range append(e.weights, e.work...) {
		s.Release()
	}
	e.weights, e.work = nil, nil
	e.loaded = false
}

// CPUCompletionTime returns the CPU-only baseline latency for a
// completion (paper: 180 s for 7B, 360 s for 13B at 20 tokens).
func (c Config) CPUCompletionTime(outputTokens int) time.Duration {
	return time.Duration(outputTokens) * c.CPUTokenTime
}
