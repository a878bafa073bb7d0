// Package vision serves image-classification models (the paper's
// §3.3 workload) on simgpu devices: the CNN's lowered kernel stream
// runs per request, preceded by host-side preprocessing. Batch-1 CNN
// inference uses only a fraction of an A100 (Fig. 1's rapidly varying
// per-layer parallelism), which makes it the canonical co-tenant for
// GPU multiplexing.
package vision

import (
	"errors"
	"time"

	"repro/internal/devent"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// ErrNotLoaded is returned when inference is attempted before Load.
var ErrNotLoaded = errors.New("vision: model not loaded")

// Config describes one CNN serving instance.
type Config struct {
	// Model is the network (e.g. models.ResNet50()).
	Model *models.Model
	// Batch is images per request (default 1).
	Batch int
	// BytesPerElt is weight/activation precision (default 4, fp32).
	BytesPerElt int
	// Preprocess is host-side work per request (decode, resize);
	// default 5 ms.
	Preprocess time.Duration
	// Lower overrides kernel lowering (Batch/BytesPerElt/Tag are
	// filled in from this config).
	Lower models.LowerOpts
}

func (c Config) withDefaults() Config {
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.BytesPerElt <= 0 {
		c.BytesPerElt = 4
	}
	if c.Preprocess == 0 {
		c.Preprocess = 5 * time.Millisecond
	}
	return c
}

// WeightBytes returns the model's parameter footprint.
func (c Config) WeightBytes() int64 {
	return c.Model.WeightBytes(c.withDefaults().BytesPerElt)
}

// Engine is one loaded CNN service.
type Engine struct {
	cfg     Config
	ctx     *simgpu.Context
	kernels []simgpu.Kernel
	weights *simgpu.Segment
	loaded  bool
}

// New creates an unloaded engine.
func New(cfg Config) *Engine {
	c := cfg.withDefaults()
	lower := c.Lower
	lower.Batch = c.Batch
	lower.BytesPerElt = c.BytesPerElt
	if lower.Tag == "" {
		lower.Tag = "infer"
	}
	lower.FuseElementwise = true
	return &Engine{cfg: c, kernels: models.Lower(c.Model, lower)}
}

// Loaded reports whether weights are resident.
func (e *Engine) Loaded() bool { return e.loaded }

// Load allocates weights on the context and transfers them.
func (e *Engine) Load(p *devent.Proc, ctx *simgpu.Context, hostLoadBW float64) error {
	seg, err := ctx.Alloc(e.cfg.Model.Name+"-weights", e.cfg.WeightBytes())
	if err != nil {
		return err
	}
	ctx.Transfer(p, e.cfg.WeightBytes(), hostLoadBW)
	e.ctx = ctx
	e.weights = seg
	e.loaded = true
	return nil
}

// Infer serves one request: preprocessing on the host, then the kernel
// stream on the GPU. It returns the request latency.
func (e *Engine) Infer(p *devent.Proc) (time.Duration, error) {
	if !e.loaded {
		return 0, ErrNotLoaded
	}
	start := p.Now()
	p.Sleep(e.cfg.Preprocess)
	if err := e.ctx.RunAll(p, e.kernels); err != nil {
		return 0, err
	}
	return p.Now() - start, nil
}

// Unload releases the weights.
func (e *Engine) Unload() {
	if e.weights != nil {
		e.weights.Release()
		e.weights = nil
	}
	e.loaded = false
}
