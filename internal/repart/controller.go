package repart

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/faas/htex"
	"repro/internal/obs"
	"repro/internal/rightsize"
	"repro/internal/simgpu"
	"repro/internal/weightcache"
)

// Tenant is one workload under control: a FaaS app pinned to its own
// executor (the paper's one-process-per-tenant deployment), plus the
// memory footprint the packers must account for.
type Tenant struct {
	// Name keys the tenant in plans, metrics, and spans.
	Name string
	// App is the FaaS app whose registry series (submissions,
	// completions, run-time histogram) drive the policy.
	App string
	// Exec is the tenant's dedicated executor; transitions restart it
	// with a new accelerator list and GPU percentages.
	Exec *htex.HTEX
	// Accelerator is the device reference MPS workers bind to ("0").
	Accelerator string
	// WeightBytes is the model footprint, counted once per tenant:
	// the weight cache shares one resident copy across the tenant's
	// workers.
	WeightBytes int64
	// WorkspaceBytes is the per-worker activation/KV workspace.
	WorkspaceBytes int64
}

// Config assembles a Controller.
type Config struct {
	Env    *devent.Env
	Spec   Spec
	Obs    *obs.Collector
	Device *simgpu.Device
	// Cache, when set, is evicted on MIG relayouts (instance memory
	// pools die with the old layout; under MPS the cache survives and
	// restarted workers re-attach for free).
	Cache   *weightcache.Cache
	Tenants []Tenant
}

// tenantState is the controller's per-tenant bookkeeping.
type tenantState struct {
	t       Tenant
	workers int
	pct     int    // per-worker MPS percentage (0 = uncapped)
	profile string // MIG profile (mode=mig)
	// curve is the online latency profile: per-worker SM budget →
	// latest observed mean task run time (seconds).
	curve map[int]float64
	// sampleSMs is the budget the current observation window runs
	// under; windows are keyed by it, not by the budget a transition
	// just installed, so completions are attributed to the partition
	// they actually ran on.
	sampleSMs int
	// mixed marks the window straddling a restart: its completions ran
	// under two partitions (or paid the drain stall), so it is not
	// recorded on the curve.
	mixed bool
	// registry snapshots from the previous tick.
	lastSum   float64
	lastCount uint64
	// queue-delay histogram snapshots, for the decide span's
	// phase-context attributes.
	lastQSum   float64
	lastQCount uint64
	// gauges exported per tenant.
	gPct     *obs.Gauge
	gWorkers *obs.Gauge
}

// Controller is the online repartitioning loop. Create with New,
// Start after the tenant executors are running, Stop when the
// workload's main proc finishes (so the event queue drains).
type Controller struct {
	env     *devent.Env
	spec    Spec
	obsC    *obs.Collector
	dev     *simgpu.Device
	cache   *weightcache.Cache
	tenants []*tenantState
	ticker  *devent.Ticker

	layout         []string // current MIG layout (mode=mig)
	lastTransition time.Duration
	transitioned   bool
	transitions    int

	cDecisions   *obs.Counter
	cTransitions *obs.Counter
	cSkips       *obs.Counter
}

// New builds a controller over started tenant executors, seeding each
// tenant's state from its executor's current configuration.
func New(cfg Config) (*Controller, error) {
	if cfg.Env == nil || cfg.Obs == nil || cfg.Device == nil {
		return nil, errors.New("repart: Env, Obs, and Device are required")
	}
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("repart: no tenants")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		env:   cfg.Env,
		spec:  cfg.Spec.withDefaults(),
		obsC:  cfg.Obs,
		dev:   cfg.Device,
		cache: cfg.Cache,
	}
	m := cfg.Obs.Metrics()
	c.cDecisions = m.Counter("repart_decisions_total")
	c.cTransitions = m.Counter("repart_transitions_total")
	c.cSkips = m.Counter("repart_skips_total")
	for _, t := range cfg.Tenants {
		if t.Exec == nil {
			return nil, fmt.Errorf("repart: tenant %q has no executor", t.Name)
		}
		ec := t.Exec.Config()
		ts := &tenantState{
			t:       t,
			workers: len(ec.AvailableAccelerators),
			curve:   make(map[int]float64),
			gPct:    m.Gauge("repart_tenant_percent", obs.L("tenant", t.Name)),
			gWorkers: m.Gauge("repart_tenant_workers",
				obs.L("tenant", t.Name)),
		}
		if len(ec.GPUPercentages) > 0 {
			ts.pct = ec.GPUPercentages[0]
		}
		ts.gPct.Set(float64(ts.pct))
		ts.gWorkers.Set(float64(ts.workers))
		c.tenants = append(c.tenants, ts)
	}
	for _, ts := range c.tenants {
		ts.sampleSMs = c.perWorkerSMs(ts)
	}
	return c, nil
}

// Transitions reports how many repartitioning transitions were
// applied.
func (c *Controller) Transitions() int { return c.transitions }

// Start launches the control loop: one tick per Spec.Interval on the
// virtual clock.
func (c *Controller) Start() {
	if c.ticker == nil {
		c.ticker = c.env.Every("repart-ctl", c.spec.Interval, c.tick)
	}
}

// Stop ends the control loop; the workload's main proc calls it so
// the simulation can drain.
func (c *Controller) Stop() {
	c.ticker.Stop()
}

// window holds one tenant's per-tick observation. runMean and
// queueMean (seconds) summarize where the tenant's tasks spent the
// last window — the phase context recorded on the decide span.
type window struct {
	outstanding int
	targetW     int
	targetSMs   int
	runMean     float64
	queueMean   float64
}

// tick is one control decision: read per-tenant registry deltas,
// recompute right-sized demands, pack, and transition if the plan
// moved beyond the hysteresis band.
func (c *Controller) tick(p *devent.Proc) {
	c.cDecisions.Inc()
	span := c.obsC.StartSpan("repart", "decide", "repart", 0,
		obs.String("policy", string(c.spec.Policy)),
		obs.String("mode", c.spec.Mode))
	obsv := c.observe()
	var decision string
	if c.transitioned && c.spec.Cooldown > 0 && p.Now()-c.lastTransition < c.spec.Cooldown {
		decision = "cooldown"
		c.cSkips.Inc()
	} else if c.spec.Mode == ModeMIG {
		decision = c.planMIG(p, span, obsv)
	} else {
		decision = c.planMPS(p, span, obsv)
	}
	// The decide span carries each tenant's phase context — where the
	// last window's latency went — so a trace reader (or tracediff)
	// can see what evidence the decision acted on.
	attrs := []obs.Attr{
		obs.String("decision", decision),
		obs.String("plan", c.planString()),
	}
	for i, ts := range c.tenants {
		w := obsv[i]
		blame := "run"
		if w.queueMean > w.runMean {
			blame = "queue"
		}
		attrs = append(attrs, obs.String("phase:"+ts.t.Name,
			fmt.Sprintf("sms=%d backlog=%d run_ms=%.1f queue_ms=%.1f blame=%s",
				w.targetSMs, w.outstanding, w.runMean*1e3, w.queueMean*1e3, blame)))
	}
	c.obsC.EndSpan(span, attrs...)
}

// observe reads each tenant's registry window: backlog from the
// submitted/completed counters, and a new point on the latency curve
// from the run-time histogram delta (keyed by the per-worker SM budget
// the window ran under).
func (c *Controller) observe() []window {
	m := c.obsC.Metrics()
	spec := c.dev.Spec()
	out := make([]window, len(c.tenants))
	for i, ts := range c.tenants {
		app := obs.L("app", ts.t.App)
		outstanding, _ := faas.Backlog(m, ts.t.App)
		h := m.Histogram("faas_task_run_seconds", nil, app)
		dSum, dCount := h.Sum()-ts.lastSum, h.Count()-ts.lastCount
		ts.lastSum, ts.lastCount = h.Sum(), h.Count()
		if dCount > 0 && !ts.mixed {
			ts.curve[ts.sampleSMs] = dSum / float64(dCount)
		}
		ts.mixed = false
		w := window{outstanding: outstanding}
		if dCount > 0 {
			w.runMean = dSum / float64(dCount)
		}
		qh := m.Histogram("faas_task_queue_delay_seconds", nil, app)
		dQSum, dQCount := qh.Sum()-ts.lastQSum, qh.Count()-ts.lastQCount
		ts.lastQSum, ts.lastQCount = qh.Sum(), qh.Count()
		if dQCount > 0 {
			w.queueMean = dQSum / float64(dQCount)
		}
		w.targetW = w.outstanding
		if w.targetW < 1 {
			w.targetW = 1
		}
		if w.targetW > c.spec.MaxWorkers {
			w.targetW = c.spec.MaxWorkers
		}
		w.targetSMs = c.targetSMs(ts, spec)
		out[i] = w
	}
	// PolicyFair ignores the curves: equal per-worker split of the
	// device across every planned worker.
	if c.spec.Policy == PolicyFair {
		total := 0
		for _, w := range out {
			total += w.targetW
		}
		share := spec.SMs / total
		if share < 1 {
			share = 1
		}
		for i := range out {
			out[i].targetSMs = share
		}
	}
	return out
}

// perWorkerSMs is the SM budget one worker of the tenant currently
// runs under.
func (c *Controller) perWorkerSMs(ts *tenantState) int {
	spec := c.dev.Spec()
	if c.spec.Mode == ModeMIG {
		if prof, err := simgpu.LookupProfile(spec, ts.profile); err == nil {
			return prof.Slices * spec.SMsPerSlice
		}
		return spec.SMs
	}
	if ts.pct <= 0 {
		return spec.SMs
	}
	return simgpu.PercentSMs(spec.SMs, ts.pct)
}

// targetSMs right-sizes one tenant's per-worker budget: the knee of
// its observed curve (via rightsize.Recommend), probing halfway down
// when the knee sits on the smallest budget sampled so far — the
// online equivalent of the §7 sweep, converging without ever running
// an offline calibration.
func (c *Controller) targetSMs(ts *tenantState, spec simgpu.DeviceSpec) int {
	if len(ts.curve) == 0 {
		return c.perWorkerSMs(ts) // nothing observed yet: hold
	}
	var curve rightsize.Curve
	smallest := spec.SMs
	for sms := range ts.curve {
		if sms < smallest {
			smallest = sms
		}
		curve = append(curve, rightsize.Point{SMs: sms, Latency: time.Duration(ts.curve[sms] * float64(time.Second))})
	}
	curve.Sort()
	rec, err := rightsize.Recommend(spec, curve, c.spec.Tolerance, ts.t.WeightBytes+ts.t.WorkspaceBytes)
	if err != nil {
		return c.perWorkerSMs(ts)
	}
	target := rec.KneeSMs
	if target == smallest && target > c.spec.MinSMs {
		if probe := max(c.spec.MinSMs, target/2); probe < target {
			if _, tried := ts.curve[probe]; !tried {
				target = probe
			}
		}
	}
	return target
}

// planMPS packs per-worker demands into GPU percentages and restarts
// the executors whose configuration moved beyond the hysteresis band.
// Memory pressure sheds workers from the widest tenant first.
func (c *Controller) planMPS(p *devent.Proc, parent obs.SpanID, obsv []window) string {
	var plan *rightsize.MPSPlan
	for {
		var demands []rightsize.TenantDemand
		for i, ts := range c.tenants {
			for j := 0; j < obsv[i].targetW; j++ {
				mem := ts.t.WorkspaceBytes
				if j == 0 {
					mem += ts.t.WeightBytes // cache shares weights across the tenant's workers
				}
				demands = append(demands, rightsize.TenantDemand{
					Name:     fmt.Sprintf("%s/%d", ts.t.Name, j),
					SMs:      obsv[i].targetSMs,
					MemBytes: mem,
				})
			}
		}
		var err error
		plan, err = rightsize.PackMPS(c.dev.Spec(), demands)
		if err == nil {
			break
		}
		// Shed a worker from the widest tenant and retry; if every
		// tenant is down to one worker the demands are unservable as
		// stated — hold the current partitioning.
		widest, most := -1, 1
		for i := range obsv {
			if obsv[i].targetW > most {
				widest, most = i, obsv[i].targetW
			}
		}
		if widest < 0 {
			c.cSkips.Inc()
			return "infeasible"
		}
		obsv[widest].targetW--
	}
	// One cap per tenant: the max over its workers' apportioned
	// percentages, so all workers of a tenant share a single value.
	pcts := make([]int, len(c.tenants))
	ai := 0
	for i := range c.tenants {
		for j := 0; j < obsv[i].targetW; j++ {
			if pct := plan.Assignments[ai].Percent; pct > pcts[i] {
				pcts[i] = pct
			}
			ai++
		}
	}
	changed := false
	for i, ts := range c.tenants {
		if obsv[i].targetW != ts.workers || abs(pcts[i]-ts.pct) >= c.spec.DeltaPct {
			changed = true
		}
	}
	if !changed {
		c.cSkips.Inc()
		return "hold"
	}
	tspan := c.obsC.StartSpan("repart", "transition", "repart", parent,
		obs.String("mechanism", "mps-restart"))
	for i, ts := range c.tenants {
		if obsv[i].targetW == ts.workers && abs(pcts[i]-ts.pct) < c.spec.DeltaPct {
			continue // this tenant's partition is unchanged
		}
		accels := make([]string, obsv[i].targetW)
		pl := make([]int, obsv[i].targetW)
		for j := range accels {
			accels[j] = ts.t.Accelerator
			pl[j] = pcts[i]
		}
		if err := ts.t.Exec.Restart(p, accels, pl); err != nil {
			c.env.Fail(fmt.Errorf("repart: restarting %q: %w", ts.t.Name, err))
			c.obsC.EndSpan(tspan, obs.String("status", "failed"))
			return "failed"
		}
		ts.workers, ts.pct = obsv[i].targetW, pcts[i]
		ts.mixed = true
		ts.sampleSMs = c.perWorkerSMs(ts)
		ts.gPct.Set(float64(ts.pct))
		ts.gWorkers.Set(float64(ts.workers))
	}
	c.obsC.EndSpan(tspan)
	c.noteTransition(p)
	return "transition"
}

// planMIG packs tenant demands into a MIG layout and, when the layout
// moved, drains every tenant, reconfigures the device, and restarts
// each executor on its new instance. Instance memory pools die with
// the old layout, so cached weights are evicted first (MIG is the one
// mechanism the weight cache cannot carry across — paper §7).
func (c *Controller) planMIG(p *devent.Proc, parent obs.SpanID, obsv []window) string {
	spec := c.dev.Spec()
	demands := make([]rightsize.TenantDemand, len(c.tenants))
	for i, ts := range c.tenants {
		sms := obsv[i].targetSMs
		// A MIG device can slice out at most MIGSlices·SMsPerSlice SMs
		// (98 of the A100's 108): a whole-device demand means "the
		// largest instance", not "unpackable".
		if cap := spec.MIGSlices * spec.SMsPerSlice; sms > cap {
			sms = cap
		}
		demands[i] = rightsize.TenantDemand{
			Name:     ts.t.Name,
			SMs:      sms,
			MemBytes: ts.t.WeightBytes + ts.t.WorkspaceBytes,
		}
	}
	// PackMIG rejects unplaceable layouts outright (two fresh tenants
	// both demand the whole device → two 7g instances), so shrink: step
	// the widest tenant's demand down one profile rung — never below
	// its memory floor — and retry, the MIG analogue of the MPS
	// worker-shedding loop.
	profiles := simgpu.MIGProfilesFor(spec)
	var plan *rightsize.MIGPlan
	for {
		var err error
		plan, err = rightsize.PackMIG(spec, demands)
		if err == nil {
			break
		}
		if !shrinkMIGDemand(spec, profiles, demands) {
			c.cSkips.Inc()
			return "infeasible"
		}
	}
	same := len(plan.Assignments) == len(c.tenants)
	for i, a := range plan.Assignments {
		if same && a.Profile != c.tenants[i].profile {
			same = false
		}
	}
	if same {
		c.cSkips.Inc()
		return "hold"
	}
	tspan := c.obsC.StartSpan("repart", "transition", "repart", parent,
		obs.String("mechanism", "mig-reconfig"))
	for _, ts := range c.tenants {
		ts.t.Exec.ShutdownAndWait(p)
	}
	if c.cache != nil {
		for _, key := range c.cache.Keys() {
			c.cache.Evict(key)
		}
	}
	if err := c.dev.EnableMIG(p); err != nil {
		c.env.Fail(fmt.Errorf("repart: enabling MIG: %w", err))
		c.obsC.EndSpan(tspan, obs.String("status", "failed"))
		return "failed"
	}
	instances, err := c.dev.ConfigureMIG(p, plan.Layout)
	if err != nil {
		c.env.Fail(fmt.Errorf("repart: configuring MIG %v: %w", plan.Layout, err))
		c.obsC.EndSpan(tspan, obs.String("status", "failed"))
		return "failed"
	}
	used := make([]bool, len(instances))
	for i, ts := range c.tenants {
		uuid := ""
		for k, in := range instances {
			if !used[k] && in.Profile().Name == plan.Assignments[i].Profile {
				used[k], uuid = true, in.UUID()
				break
			}
		}
		if uuid == "" {
			c.env.Fail(fmt.Errorf("repart: no instance for tenant %q profile %s", ts.t.Name, plan.Assignments[i].Profile))
			c.obsC.EndSpan(tspan, obs.String("status", "failed"))
			return "failed"
		}
		if err := ts.t.Exec.Restart(p, []string{uuid}, nil); err != nil {
			c.env.Fail(fmt.Errorf("repart: restarting %q: %w", ts.t.Name, err))
			c.obsC.EndSpan(tspan, obs.String("status", "failed"))
			return "failed"
		}
		ts.profile = plan.Assignments[i].Profile
		ts.workers = 1
		ts.mixed = true
		ts.sampleSMs = c.perWorkerSMs(ts)
		ts.gWorkers.Set(1)
	}
	c.layout = plan.Layout
	c.obsC.EndSpan(tspan)
	c.noteTransition(p)
	return "transition"
}

// shrinkMIGDemand steps the tenant holding the largest covering
// profile down to the next smaller profile that still fits its memory,
// mutating demands in place. Returns false when no tenant can shrink
// (the plan is genuinely infeasible). Ties pick the first tenant, so
// shrinking is deterministic.
func shrinkMIGDemand(spec simgpu.DeviceSpec, profiles []simgpu.MIGProfile, demands []rightsize.TenantDemand) bool {
	widest, widestSl := -1, 0
	var next simgpu.MIGProfile
	for i, d := range demands {
		ci := simgpu.CoveringProfile(&spec, profiles, d.SMs, d.MemBytes)
		if ci < 0 || profiles[ci].Slices <= widestSl {
			continue
		}
		// The largest profile below the covering one (the table is
		// small → large) that still holds the tenant's memory.
		for j := ci - 1; j >= 0; j-- {
			if profiles[j].MemBytes >= d.MemBytes {
				widest, widestSl, next = i, profiles[ci].Slices, profiles[j]
				break
			}
		}
	}
	if widest < 0 {
		return false
	}
	demands[widest].SMs = next.Slices * spec.SMsPerSlice
	return true
}

func (c *Controller) noteTransition(p *devent.Proc) {
	c.transitions++
	c.transitioned = true
	c.lastTransition = p.Now()
	c.cTransitions.Inc()
}

// planString renders the current partitioning for decision spans.
func (c *Controller) planString() string {
	parts := make([]string, len(c.tenants))
	for i, ts := range c.tenants {
		if c.spec.Mode == ModeMIG {
			prof := ts.profile
			if prof == "" {
				prof = "-"
			}
			parts[i] = fmt.Sprintf("%s=%s", ts.t.Name, prof)
		} else {
			parts[i] = fmt.Sprintf("%s=%dx%d%%", ts.t.Name, ts.workers, ts.pct)
		}
	}
	return strings.Join(parts, " ")
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
