package simgpu

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/devent"
	"repro/internal/obs"
)

// ErrDestroyed is returned for operations on a destroyed context.
var ErrDestroyed = errors.New("simgpu: context destroyed")

// ErrContextLost is the failure delivered when a context is torn down
// by an injected hardware fault (uncorrectable ECC error, Xid-style
// channel loss): the CUDA analogue of CUDA_ERROR_ECC_UNCORRECTABLE,
// after which every operation on the context fails and the client
// process must recreate it. It is retriable at the task level — a
// fresh context on the same or another worker can redo the work.
var ErrContextLost = errors.New("simgpu: context lost (uncorrectable ECC error)")

// ContextOpts configures a GPU context (one per client process).
type ContextOpts struct {
	// Name labels the context in traces; empty gets a generated name.
	Name string
	// SMPercent is the CUDA_MPS_ACTIVE_THREAD_PERCENTAGE-style cap on
	// the fraction of the domain's SMs this context may use; 0 or 100
	// means unrestricted. Only meaningful under PolicySpatial.
	SMPercent int
	// Group names the vGPU VM this context belongs to (PolicyVGPU).
	Group string
	// SkipInit suppresses the context-initialization delay (useful in
	// unit tests; real cold starts should pay it).
	SkipInit bool
}

// Context is a client process's handle on a compute domain: a single
// in-order stream of kernels plus its memory allocations.
type Context struct {
	name      string
	dom       *domain
	mem       *MemPool
	pcieBW    float64
	devBW     float64
	smPct     int
	group     string
	queue     []*launched
	owned     []*Segment
	attached  []*Segment
	destroyed bool
	createdAt time.Duration

	// traceParent is the span kernel spans launched through this
	// context hang under (the worker's current run span).
	traceParent obs.SpanID
}

// SetTraceParent parents subsequent kernel spans under the given span
// (e.g. the htex run span of the invocation driving this context).
func (c *Context) SetTraceParent(id obs.SpanID) { c.traceParent = id }

// Name returns the context name.
func (c *Context) Name() string { return c.name }

// CreatedAt returns the virtual time the context finished initializing.
func (c *Context) CreatedAt() time.Duration { return c.createdAt }

// SMPercent returns the context's SM cap percentage (0 = unlimited).
func (c *Context) SMPercent() int { return c.smPct }

// smCap converts the percentage to an SM count (0 = unlimited). CUDA
// MPS rounds the portion up to a whole SM.
func (c *Context) smCap() int {
	if c.smPct <= 0 || c.smPct >= 100 {
		return 0
	}
	return int(math.Ceil(float64(c.smPct) / 100 * float64(c.dom.sms)))
}

// Launch enqueues a kernel on the context's stream, returning its
// completion event. The event fires with a KernelRecord or fails with
// ErrAborted if the context is destroyed first.
func (c *Context) Launch(k Kernel) *devent.Event {
	if c.destroyed {
		ev := c.dom.env.NewNamedEvent(k.Name)
		ev.Fail(ErrDestroyed)
		return ev
	}
	return c.dom.launch(c, k)
}

// Run launches k and blocks the proc until it completes.
func (c *Context) Run(p *devent.Proc, k Kernel) (KernelRecord, error) {
	v, err := p.Wait(c.Launch(k))
	if err != nil {
		return KernelRecord{}, err
	}
	return v.(KernelRecord), nil
}

// RunAll launches the kernels back-to-back on the stream (so they
// pipeline in order) and waits for the last; the first error aborts
// the wait.
func (c *Context) RunAll(p *devent.Proc, ks []Kernel) error {
	if len(ks) == 0 {
		return nil
	}
	evs := make([]*devent.Event, len(ks))
	for i, k := range ks {
		evs[i] = c.Launch(k)
	}
	for _, ev := range evs {
		if _, err := p.Wait(ev); err != nil {
			return err
		}
	}
	return nil
}

// Alloc reserves device memory owned by this context; it is freed on
// Destroy. Under MPS all contexts share one pool (no isolation); under
// MIG the pool is the instance's.
func (c *Context) Alloc(name string, bytes int64) (*Segment, error) {
	if c.destroyed {
		return nil, ErrDestroyed
	}
	seg, err := c.mem.Alloc(prefixed(c.name, name), bytes)
	if err != nil {
		return nil, err
	}
	c.owned = append(c.owned, seg)
	return seg, nil
}

// Attach adds a reference to a shared segment (e.g. a cached model);
// the reference is released on Destroy.
func (c *Context) Attach(seg *Segment) {
	seg.Retain()
	c.attached = append(c.attached, seg)
}

// Pool returns the memory pool the context allocates from.
func (c *Context) Pool() *MemPool { return c.mem }

// SpecView is the subset of device characteristics a workload needs
// to size kernels for a context. MemBW is always the full parent
// device's bandwidth, even for MIG-instance contexts — workloads
// calibrate against whole-device numbers and the scheduler applies
// the instance's share.
type SpecView struct {
	// PerSMFLOPS is single-precision throughput per SM.
	PerSMFLOPS float64
	// MemBW is the full parent device's HBM bandwidth.
	MemBW float64
	// DomainSMs is the SM count of the context's compute domain (the
	// whole device, or the MIG instance).
	DomainSMs int
	// DomainMemBW is the bandwidth of the context's domain.
	DomainMemBW float64
}

// SpecView returns the context's device characteristics.
func (c *Context) SpecView() SpecView {
	return SpecView{
		PerSMFLOPS:  c.dom.perSM,
		MemBW:       c.devBW,
		DomainSMs:   c.dom.sms,
		DomainMemBW: c.dom.bw,
	}
}

// CopyH2D blocks the proc for a host-to-device transfer of the given
// size over PCIe.
func (c *Context) CopyH2D(p *devent.Proc, bytes int64) {
	c.transfer(p, bytes, c.pcieBW, "pcie")
}

// Transfer blocks the proc for bytes moved at bw bytes/s (callers pick
// the path: PCIe, NVLink, or the end-to-end model-loading path).
func (c *Context) Transfer(p *devent.Proc, bytes int64, bw float64) {
	c.transfer(p, bytes, bw, "")
}

// TransferTagged is Transfer with a workload tag recorded on the
// transfer span; "weights" marks model-weight loads so the attribution
// engine can separate weight loading from other PCIe traffic.
func (c *Context) TransferTagged(p *devent.Proc, bytes int64, bw float64, tag string) {
	c.transfer(p, bytes, bw, tag)
}

func (c *Context) transfer(p *devent.Proc, bytes int64, bw float64, tag string) {
	if bytes <= 0 || bw <= 0 {
		return
	}
	t0 := p.Now()
	p.Sleep(time.Duration(float64(bytes) / bw * float64(time.Second)))
	if c.dom.obs != nil {
		attrs := append(make([]obs.Attr, 0, 2), obs.Int("bytes", int(bytes)))
		if tag != "" {
			attrs = append(attrs, obs.String("tag", tag))
		}
		c.dom.obs.AddSpan("simgpu", "xfer", c.name, c.traceParent, t0, p.Now(), attrs...)
	}
}

// Pending returns the number of queued (incl. running) kernels.
func (c *Context) Pending() int { return len(c.queue) }

// Destroyed reports whether Destroy has been called.
func (c *Context) Destroyed() bool { return c.destroyed }

// Destroy aborts all queued kernels (their events fail with
// ErrAborted), frees owned memory, and releases shared attachments.
// This is the simulator's analogue of killing the client process —
// required by MPS to change a GPU percentage (paper §6).
func (c *Context) Destroy() { c.destroyWith(ErrAborted) }

// Fault destroys the context as a hardware fault would: queued and
// running kernels fail with err (ErrContextLost when err is nil)
// instead of the orderly ErrAborted, memory is freed, and the context
// leaves scheduling. Subsequent Launch/Alloc calls fail with
// ErrDestroyed, so the owning worker must open a fresh context.
func (c *Context) Fault(err error) {
	if err == nil {
		err = ErrContextLost
	}
	c.destroyWith(err)
}

func (c *Context) destroyWith(err error) {
	if c.destroyed {
		return
	}
	c.destroyed = true
	c.dom.abortContext(c, err)
	for _, seg := range c.owned {
		seg.Release()
	}
	c.owned = nil
	for _, seg := range c.attached {
		seg.Release()
	}
	c.attached = nil
}

func prefixed(ctx, name string) string {
	if name == "" {
		return ""
	}
	return fmt.Sprintf("%s/%s", ctx, name)
}
