package simgpu

import (
	"math"
	"slices"
	"time"

	"repro/internal/devent"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Policy selects how concurrent contexts share a compute domain.
type Policy int

const (
	// PolicyTimeShare is the GPU default without MPS: kernels from
	// different contexts serialize, each using the whole domain, with
	// a context-switch penalty between contexts (Table 1 row 1).
	PolicyTimeShare Policy = iota
	// PolicySpatial models CUDA MPS: stream-head kernels from all
	// contexts run concurrently, sharing SMs (subject to per-context
	// percentage caps) and memory bandwidth (Table 1 rows 2–3).
	PolicySpatial
	// PolicyVGPU models vGPU-style scheduling: context groups (VMs)
	// take strict time-sliced turns; within the active group kernels
	// run spatially (Table 1 row 5).
	PolicyVGPU
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyTimeShare:
		return "timeshare"
	case PolicySpatial:
		return "spatial"
	case PolicyVGPU:
		return "vgpu"
	default:
		return "unknown"
	}
}

// domain is one independently scheduled compute partition: the whole
// GPU in non-MIG mode, or a single MIG instance. It implements
// processor sharing: whenever the running set changes, each kernel's
// remaining fraction is carried into a newly computed duration.
type domain struct {
	env        *devent.Env
	name       string
	sms        int
	perSM      float64
	bw         float64
	switchCost time.Duration
	policy     Policy
	quantum    time.Duration
	ctxs       []*Context
	lastCtx    *Context
	groups     []string
	activeGrp  int
	rotT       devent.Timer
	rotate     func() // the vGPU quantum expiry, bound once
	// finT is the domain's one completion timer, armed for next, the
	// running kernel due first; finish, bound once, completes it.
	finT   devent.Timer
	next   *launched
	finish func()
	busy   metrics.StepSeries

	// Scratch for reevaluate, reused across calls so the engine
	// allocates nothing in steady state. reevaluate never nests: it
	// only schedules, so no callback runs while these are in use.
	sel     []*launched
	dem     []float64
	smAlloc []float64
	bwAlloc []float64
	idx     []int

	// Observability: kernel spans and per-domain gauges flow into obs
	// when a collector is attached; everything below is nil-safe.
	obs      *obs.Collector
	gBusy    *obs.Gauge
	gQueue   *obs.Gauge
	cSwitch  *obs.Counter
	cDone    *obs.Counter
	cAbort   *obs.Counter
	switches int
	depth    int
}

// setCollector attaches a collector and resolves the domain's
// instruments once, so the scheduler hot path pays only nil checks.
func (d *domain) setCollector(c *obs.Collector) {
	d.obs = c
	m := c.Metrics()
	l := obs.L("domain", d.name)
	d.gBusy = m.Gauge("simgpu_domain_busy_sms", l)
	d.gQueue = m.Gauge("simgpu_domain_queue_depth", l)
	d.cSwitch = m.Counter("simgpu_domain_context_switches_total", l)
	d.cDone = m.Counter("simgpu_kernels_completed_total", l)
	d.cAbort = m.Counter("simgpu_kernels_aborted_total", l)
}

func newDomain(env *devent.Env, name string, sms int, perSM, bw float64, switchCost time.Duration) *domain {
	d := &domain{
		env:        env,
		name:       name,
		sms:        sms,
		perSM:      perSM,
		bw:         bw,
		switchCost: switchCost,
		policy:     PolicyTimeShare,
		quantum:    2 * time.Millisecond,
	}
	d.rotate = func() {
		d.activeGrp = (d.activeGrp + 1) % len(d.groups)
		d.switches++
		d.cSwitch.Inc()
		d.reevaluate()
	}
	d.finish = func() { d.complete(d.next) }
	return d
}

func (d *domain) addContext(c *Context) {
	d.ctxs = append(d.ctxs, c)
	if c.group != "" {
		found := false
		for _, g := range d.groups {
			if g == c.group {
				found = true
				break
			}
		}
		if !found {
			d.groups = append(d.groups, c.group)
		}
	}
}

func (d *domain) removeContext(c *Context) {
	if i := slices.Index(d.ctxs, c); i >= 0 {
		d.ctxs = slices.Delete(d.ctxs, i, i+1)
	}
	if d.lastCtx == c {
		d.lastCtx = nil
	}
}

// launch enqueues a kernel on c's stream in the record l, which it
// overwrites, and returns l; its done event fires with &l.rec, or
// fails with ErrAborted.
func (d *domain) launch(c *Context, l *launched, k Kernel) *launched {
	*l = launched{
		ctx:  c,
		rec:  KernelRecord{Kernel: k, Context: c.name, Domain: d.name, Enqueue: d.env.Now()},
		frac: 1,
	}
	d.env.InitEvent(&l.done)
	c.queue = append(c.queue, l)
	d.depth++
	d.gQueue.Set(float64(d.depth))
	if len(c.queue) == 1 {
		d.reevaluate()
	}
	return l
}

// head returns c's runnable stream head, or nil.
func (c *Context) head() *launched {
	if len(c.queue) == 0 {
		return nil
	}
	return c.queue[0]
}

// popHead shifts the stream left in place, so the next launch reuses
// the backing array.
func (c *Context) popHead(l *launched) {
	if len(c.queue) > 0 && c.queue[0] == l {
		n := copy(c.queue, c.queue[1:])
		c.queue[n] = nil // the vacated slot must not pin a finished kernel
		c.queue = c.queue[:n]
	}
}

// reevaluate recomputes the running set, SM and bandwidth allocations,
// and the completion timer. It must be called whenever stream heads,
// contexts, or the vGPU active group change.
func (d *domain) reevaluate() {
	now := d.env.Now()
	// Phase 1: cancel the completion timer and bank progress for
	// everything currently running.
	d.finT.Cancel()
	d.next = nil
	for _, c := range d.ctxs {
		l := c.head()
		if l == nil || !l.running {
			continue
		}
		if l.dur > 0 {
			elapsed := now - l.lastEv
			l.frac -= float64(elapsed) / float64(l.dur)
			if l.frac < 0 {
				l.frac = 0
			}
		}
		l.lastEv = now
		l.running = false
	}
	// Phase 2: policy selects the new running set.
	sel := d.selectRunnable(d.sel[:0])
	n := len(sel)
	dem := resize(d.dem, n)
	smAlloc := resize(d.smAlloc, n)
	bwAlloc := resize(d.bwAlloc, n)
	idx := resize(d.idx, n)
	d.sel, d.dem, d.smAlloc, d.bwAlloc, d.idx = sel, dem, smAlloc, bwAlloc, idx
	// Phase 3: allocate SMs max–min fairly among demands.
	for i, l := range sel {
		dem[i] = d.smDemand(l)
	}
	maxMinFairInto(smAlloc, idx, float64(d.sms), dem)
	// Phase 4: bandwidth demands given SM allocations, then max–min.
	for i, l := range sel {
		k := &l.rec.Kernel
		dem[i] = 0
		if k.Bytes <= 0 {
			continue
		}
		ct := 0.0
		if smAlloc[i] > 0 && k.FLOPs > 0 {
			ct = k.FLOPs / (smAlloc[i] * d.perSM)
		}
		if ct <= 0 {
			dem[i] = d.bw
		} else {
			dem[i] = math.Min(d.bw, k.Bytes/ct)
		}
	}
	maxMinFairInto(bwAlloc, idx, d.bw, dem)
	// Phase 5: start/resume kernels and arm the completion timer for
	// the one due first; a tie goes to the first in sel. Only that
	// kernel can complete before the next share change, and its
	// completion is one.
	total := 0.0
	var finAt time.Duration
	for i, l := range sel {
		l.running = true
		if !l.started {
			if d.policy == PolicyTimeShare && d.lastCtx != nil && l.ctx != d.lastCtx {
				l.extra = d.switchCost
				d.switches++
				d.cSwitch.Inc()
			}
			l.started = true
			l.rec.Start = now
		}
		l.rec.SMs = smAlloc[i]
		l.dur = d.soloDuration(l, smAlloc[i], bwAlloc[i])
		l.lastEv = now
		at := now + time.Duration(l.frac*float64(l.dur))
		if d.next == nil || at < finAt {
			d.next, finAt = l, at
		}
		total += smAlloc[i]
	}
	if d.next != nil {
		d.env.ArmAt(&d.finT, finAt, d.finish)
	}
	clear(sel) // the scratch must not pin finished kernels
	d.busy.Set(now, total)
	d.gBusy.Set(total)
	if d.policy == PolicyVGPU {
		d.ensureRotation()
	}
}

// smDemand returns how many SMs the kernel wants: its parallelism
// bound, capped by the context's percentage cap and the domain size.
func (d *domain) smDemand(l *launched) float64 {
	w := float64(d.sms)
	if m := l.rec.Kernel.MaxSMs; m > 0 && float64(m) < w {
		w = float64(m)
	}
	if cap := l.ctx.smCap(); cap > 0 && float64(cap) < w {
		w = float64(cap)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// soloDuration is the roofline duration of the whole kernel under the
// given SM count and bandwidth.
func (d *domain) soloDuration(l *launched, sms, bw float64) time.Duration {
	k := &l.rec.Kernel
	var compute, memt float64
	if k.FLOPs > 0 {
		if sms <= 0 {
			sms = 1
		}
		compute = k.FLOPs / (sms * d.perSM)
	}
	if k.Bytes > 0 {
		if bw <= 0 {
			bw = 1 // degenerate: starved of bandwidth, effectively stalled
		}
		memt = k.Bytes / bw
	}
	sec := math.Max(compute, memt)
	return k.Overhead + l.extra + time.Duration(sec*float64(time.Second))
}

// selectRunnable appends the stream heads the policy runs to sel
// (the domain's scratch, passed empty) and returns it.
func (d *domain) selectRunnable(sel []*launched) []*launched {
	switch d.policy {
	case PolicySpatial:
		for _, c := range d.ctxs {
			if l := c.head(); l != nil && !l.fin {
				sel = append(sel, l)
			}
		}
	case PolicyTimeShare:
		// Non-preemptive: continue an in-flight kernel first.
		for _, c := range d.ctxs {
			if l := c.head(); l != nil && l.started && !l.fin {
				return append(sel, l)
			}
		}
		// Round-robin: start scanning after the context that ran
		// last, so no stream monopolizes the device.
		n := len(d.ctxs)
		start := 0
		if d.lastCtx != nil {
			for i, c := range d.ctxs {
				if c == d.lastCtx {
					start = i + 1
					break
				}
			}
		}
		for i := 0; i < n; i++ {
			c := d.ctxs[(start+i)%n]
			if l := c.head(); l != nil && !l.fin {
				return append(sel, l)
			}
		}
	case PolicyVGPU:
		// Skip to a group with pending work (up to one full cycle).
		for i := 0; i < len(d.groups); i++ {
			g := d.groups[(d.activeGrp+i)%len(d.groups)]
			for _, c := range d.ctxs {
				if c.group != g {
					continue
				}
				if l := c.head(); l != nil && !l.fin {
					sel = append(sel, l)
				}
			}
			if len(sel) > 0 {
				d.activeGrp = (d.activeGrp + i) % len(d.groups)
				return sel
			}
		}
	}
	return sel
}

func (d *domain) hasWork() bool {
	for _, c := range d.ctxs {
		if c.head() != nil {
			return true
		}
	}
	return false
}

func (d *domain) ensureRotation() {
	if d.rotT.Active() || !d.hasWork() || len(d.groups) < 2 {
		return
	}
	d.env.ArmAt(&d.rotT, d.env.Now()+d.quantum, d.rotate)
}

func (d *domain) complete(l *launched) {
	if l.fin {
		return
	}
	now := d.env.Now()
	l.fin = true
	l.running = false
	l.frac = 0
	l.ctx.popHead(l)
	d.lastCtx = l.ctx
	l.rec.End = now
	d.depth--
	d.gQueue.Set(float64(d.depth))
	d.cDone.Inc()
	if d.obs != nil {
		// Room for the optional tag keeps the slice on the stack.
		r := &l.rec
		attrs := append(make([]obs.Attr, 0, 5),
			obs.String("domain", d.name),
			obs.String("context", l.ctx.name),
			obs.Float("sms", r.SMs),
			obs.Dur("queue_ns", r.Start-r.Enqueue),
		)
		if r.Kernel.Tag != "" {
			attrs = append(attrs, obs.String("tag", r.Kernel.Tag))
		}
		d.obs.AddSpan("simgpu", r.Kernel.Name, l.ctx.name, l.ctx.traceParent, r.Start, now, attrs...)
	}
	l.done.Fire(&l.rec)
	d.reevaluate()
}

// abortContext fails every queued or running kernel of c with err and
// removes the context from scheduling. Destroy passes ErrAborted;
// injected hardware faults pass ErrContextLost. The closing reevaluate
// re-arms the completion timer, which may have been due for one of c's
// kernels.
func (d *domain) abortContext(c *Context, err error) {
	now := d.env.Now()
	for _, l := range c.queue {
		if l.fin {
			continue
		}
		l.fin = true
		l.running = false
		d.depth--
		d.cAbort.Inc()
		if d.obs != nil {
			r := &l.rec
			start := r.Start
			if !l.started {
				start = r.Enqueue
			}
			attrs := append(make([]obs.Attr, 0, 4),
				obs.String("domain", d.name),
				obs.String("context", c.name),
				obs.String("status", "aborted"),
			)
			if r.Kernel.Tag != "" {
				attrs = append(attrs, obs.String("tag", r.Kernel.Tag))
			}
			d.obs.AddSpan("simgpu", r.Kernel.Name, c.name, c.traceParent, start, now, attrs...)
		}
		l.done.Fail(err)
	}
	c.queue = nil
	d.gQueue.Set(float64(d.depth))
	d.removeContext(c)
	d.reevaluate()
}

// resize returns s with length n, reusing its backing array when it
// is large enough. The contents are stale; callers overwrite them.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// busySeries exposes the Σ-allocated-SMs step series.
func (d *domain) busySeries() *metrics.StepSeries { return &d.busy }

// utilization is the time-weighted mean of busy SMs over [from, to]
// divided by the domain's SM count.
func (d *domain) utilization(from, to time.Duration) float64 {
	if d.sms == 0 {
		return 0
	}
	return d.busy.Mean(from, to) / float64(d.sms)
}
