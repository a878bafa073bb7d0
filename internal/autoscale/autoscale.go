// Package autoscale closes the horizontal half of the HAS-GPU loop:
// where internal/repart resizes partitions vertically (MPS percentage
// and MIG profile transitions on a fixed device set), this controller
// grows and shrinks the device set itself — provisioning whole-GPU
// blocks from a provider on SLO burn or backlog pressure, releasing
// them (down to zero) when demand ebbs — and sheds load at admission
// when even scaling cannot protect the latency objective.
//
// The control signal is the per-app "slo:burn" event series that
// analyze.NewMonitor records in a shared tsdb, combined with the
// backlog implied by the registry's submitted/completed counters. The
// loop is a virtual-clock daemon exactly like repart.Controller's:
// deterministic ticks, decide spans, cooldown and hysteresis, so runs
// are byte-identical at any host parallelism.
package autoscale

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/faas/htex"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// Spec is the autoscaling policy.
type Spec struct {
	// Interval is the control-loop tick period (default 30s).
	Interval time.Duration
	// Window is the observation window for burn and arrival queries
	// (default 2×Interval).
	Window time.Duration
	// BurnHigh triggers scale-out: mean burn over the window at or
	// above it means the error budget is being consumed too fast for
	// the current capacity (default 1.0 — burning the whole budget).
	BurnHigh float64
	// BurnLow allows scale-in: mean burn below it over a full window
	// means capacity is comfortably ahead of demand (default 0.25).
	BurnLow float64
	// BacklogPerWorker also triggers scale-out: queued-but-unfinished
	// tasks per live worker beyond it mean the queue is outrunning
	// service even if no completion has blown the SLO yet (default 4).
	BacklogPerWorker float64
	// MinBlocks and MaxBlocks bound the block count. MinBlocks 0
	// enables scale-to-zero. MaxBlocks must be >= 1 (default 8).
	MinBlocks int
	MaxBlocks int
	// Step is how many blocks one scale-out adds (default 1).
	Step int
	// CooldownOut/CooldownIn are the minimum gaps after a transition
	// before the next scale-out/scale-in (defaults 1×/4× Interval:
	// growing is cheap to undo, shrinking re-pays cold starts).
	CooldownOut time.Duration
	CooldownIn  time.Duration
	// IdleAfter scales to MinBlocks after this long with no arrivals
	// and no backlog (default 4×Interval; only reaches zero when
	// MinBlocks is 0).
	IdleAfter time.Duration
	// ShedStart and ShedFull ramp the admission-control shed
	// probability linearly from 0 at burn=ShedStart to MaxShed at
	// burn=ShedFull (defaults 2.0 and 4.0): shedding starts only after
	// scaling has had its chance, and saturates when the budget is
	// burning at four times the sustainable rate.
	ShedStart float64
	ShedFull  float64
	// MaxShed caps the shed probability (default 0.9: never a full
	// brown-out, some traffic always probes whether pressure eased).
	MaxShed float64
	// RetryAfter is the hint carried by shed errors (default Window).
	RetryAfter time.Duration
	// Seed drives the shed coin flips (default 1). The controller owns
	// its RNG so admission draws never perturb the DFK's retry jitter
	// sequence.
	Seed int64
}

// withDefaults fills zero fields.
func (s Spec) withDefaults() Spec {
	if s.Interval <= 0 {
		s.Interval = 30 * time.Second
	}
	if s.Window <= 0 {
		s.Window = 2 * s.Interval
	}
	if s.BurnHigh == 0 {
		s.BurnHigh = 1.0
	}
	if s.BurnLow == 0 {
		s.BurnLow = 0.25
	}
	if s.BacklogPerWorker == 0 {
		s.BacklogPerWorker = 4
	}
	if s.MaxBlocks == 0 {
		s.MaxBlocks = 8
	}
	if s.Step <= 0 {
		s.Step = 1
	}
	if s.CooldownOut == 0 {
		s.CooldownOut = s.Interval
	}
	if s.CooldownIn == 0 {
		s.CooldownIn = 4 * s.Interval
	}
	if s.IdleAfter == 0 {
		s.IdleAfter = 4 * s.Interval
	}
	if s.ShedStart == 0 {
		s.ShedStart = 2.0
	}
	if s.ShedFull == 0 {
		s.ShedFull = 4.0
	}
	if s.MaxShed == 0 {
		s.MaxShed = 0.9
	}
	if s.RetryAfter == 0 {
		s.RetryAfter = s.Window
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Validate rejects inconsistent policies.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if s.MinBlocks < 0 {
		return fmt.Errorf("autoscale: negative MinBlocks %d", s.MinBlocks)
	}
	if s.MaxBlocks < 1 || s.MaxBlocks < s.MinBlocks {
		return fmt.Errorf("autoscale: MaxBlocks %d outside [max(1,MinBlocks)=%d, ...]", s.MaxBlocks, s.MinBlocks)
	}
	if s.BurnLow >= s.BurnHigh {
		return fmt.Errorf("autoscale: BurnLow %.2f must be below BurnHigh %.2f", s.BurnLow, s.BurnHigh)
	}
	if s.ShedFull <= s.ShedStart {
		return fmt.Errorf("autoscale: ShedFull %.2f must be above ShedStart %.2f", s.ShedFull, s.ShedStart)
	}
	if s.MaxShed < 0 || s.MaxShed > 1 {
		return fmt.Errorf("autoscale: MaxShed %.2f outside [0,1]", s.MaxShed)
	}
	return nil
}

// Config assembles a Controller.
type Config struct {
	Env *devent.Env
	Obs *obs.Collector
	// DB holds the per-app "slo:burn" event series (from
	// analyze.NewMonitor). Required: burn is the primary signal.
	DB   *tsdb.DB
	Spec Spec
	// Exec is the executor whose blocks the controller scales.
	Exec *htex.HTEX
	// DFK, when set, gets the admission-control hook installed on
	// Start and removed on Stop.
	DFK *faas.DFK
	// Apps are the applications whose burn and backlog drive the
	// policy (the max across apps acts).
	Apps []string
}

// Controller is the autoscaling loop. Create with New, Start once the
// executor is running, Stop when the workload's main proc finishes.
type Controller struct {
	env  *devent.Env
	obsC *obs.Collector
	db   *tsdb.DB
	spec Spec
	exec *htex.HTEX
	dfk  *faas.DFK
	apps []string
	stop *devent.Event
	rng  *rand.Rand

	// shedProb is the current admission shed probability, updated each
	// tick and read by the DFK hook on every Submit.
	shedProb float64

	lastOut  time.Duration
	lastIn   time.Duration
	idleFor  time.Duration
	lastSubmitted float64

	// Block-seconds integration for the economics report: blocks held
	// × virtual time, advanced at every block-count change.
	blockSeconds float64
	lastBlocks   int
	lastChange   time.Duration

	scaleOuts int
	scaleIns  int

	cDecisions *obs.Counter
	cOut       *obs.Counter
	cIn        *obs.Counter
	gBlocks    *obs.Gauge
	gShed      *obs.Gauge
	gBurn      *obs.Gauge
}

// New builds a controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Env == nil || cfg.Obs == nil || cfg.Exec == nil {
		return nil, errors.New("autoscale: Env, Obs, and Exec are required")
	}
	if cfg.DB == nil {
		return nil, errors.New("autoscale: DB is required (slo:burn is the control signal)")
	}
	if len(cfg.Apps) == 0 {
		return nil, errors.New("autoscale: no apps to watch")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		env:  cfg.Env,
		obsC: cfg.Obs,
		db:   cfg.DB,
		spec: cfg.Spec.withDefaults(),
		exec: cfg.Exec,
		dfk:  cfg.DFK,
		apps: append([]string(nil), cfg.Apps...),
		rng:  rand.New(rand.NewSource(cfg.Spec.withDefaults().Seed)),
	}
	m := cfg.Obs.Metrics()
	c.cDecisions = m.Counter("autoscale_decisions_total")
	c.cOut = m.Counter("autoscale_scale_out_total")
	c.cIn = m.Counter("autoscale_scale_in_total")
	c.gBlocks = m.Gauge("autoscale_blocks")
	c.gShed = m.Gauge("autoscale_shed_probability")
	c.gBurn = m.Gauge("autoscale_burn")
	return c, nil
}

// ScaleOuts and ScaleIns report applied transitions.
func (c *Controller) ScaleOuts() int { return c.scaleOuts }

// ScaleIns reports applied scale-in transitions.
func (c *Controller) ScaleIns() int { return c.scaleIns }

// BlockSeconds integrates blocks held over virtual time up to the last
// block-count change (call Stop first for the full-run total) — the
// GPU-seconds cost axis of the economics report.
func (c *Controller) BlockSeconds() float64 { return c.blockSeconds }

// ShedProbability is the current admission shed probability.
func (c *Controller) ShedProbability() float64 { return c.shedProb }

// Start launches the control loop and installs the admission hook.
func (c *Controller) Start() {
	if c.stop != nil {
		return
	}
	c.stop = c.env.NewNamedEvent("autoscale-stop")
	c.lastBlocks = c.exec.Blocks()
	c.lastChange = c.env.Now()
	c.gBlocks.Set(float64(c.lastBlocks))
	if c.dfk != nil {
		c.dfk.SetAdmission(func(t *faas.Task) (bool, time.Duration) {
			if c.shedProb <= 0 {
				return false, 0
			}
			if c.rng.Float64() >= c.shedProb {
				return false, 0
			}
			return true, c.spec.RetryAfter
		})
	}
	c.env.Spawn("autoscale-ctl", func(p *devent.Proc) {
		for {
			if _, err := p.WaitTimeout(c.stop, c.spec.Interval); !errors.Is(err, devent.ErrTimeout) {
				return
			}
			c.tick(p)
		}
	})
}

// Stop ends the loop, removes the admission hook, and closes the
// block-seconds integral.
func (c *Controller) Stop() {
	if c.stop == nil || c.stop.Fired() {
		return
	}
	c.stop.Fire(nil)
	if c.dfk != nil {
		c.dfk.SetAdmission(nil)
	}
	c.noteBlocks()
}

// noteBlocks advances the block-seconds integral to now.
func (c *Controller) noteBlocks() {
	now := c.env.Now()
	c.blockSeconds += float64(c.lastBlocks) * (now - c.lastChange).Seconds()
	c.lastBlocks = c.exec.Blocks()
	c.lastChange = now
	c.gBlocks.Set(float64(c.lastBlocks))
}

// observation is one tick's input.
type observation struct {
	burn     float64 // max over apps of mean burn in the window
	backlog  int     // submitted - terminal, summed over apps
	arrivals float64 // submissions this tick (for idle detection)
}

// observe reads the control inputs: windowed mean burn from the tsdb
// event series, backlog from the registry counters.
func (c *Controller) observe() observation {
	var o observation
	cutoff := c.env.Now() - c.spec.Window
	if cutoff < 0 {
		cutoff = 0
	}
	m := c.obsC.Metrics()
	var submitted float64
	for _, app := range c.apps {
		l := obs.L("app", app)
		s := c.db.EventSeries("slo:burn", 0, l)
		if n, _ := s.CountSince(cutoff); n > 0 {
			if burn := s.SumSince(cutoff) / float64(n); burn > o.burn {
				o.burn = burn
			}
		}
		sub := m.Counter("faas_tasks_submitted_total", l).Value()
		submitted += sub
		var done float64
		for _, st := range faas.TerminalStatuses {
			done += m.Counter("faas_tasks_completed_total", l, obs.L("status", st.String())).Value()
		}
		o.backlog += int(sub - done)
	}
	o.arrivals = submitted - c.lastSubmitted
	c.lastSubmitted = submitted
	return o
}

// tick is one control decision across both axes.
func (c *Controller) tick(p *devent.Proc) {
	c.cDecisions.Inc()
	span := c.obsC.StartSpan("autoscale", "decide", "autoscale", 0)
	o := c.observe()
	c.gBurn.Set(o.burn)

	// Admission axis: ramp the shed probability with burn. This acts
	// immediately — scaling takes a provider grant plus cold start to
	// help, shedding protects the SLO in the meantime.
	c.shedProb = c.shedFor(o.burn)
	c.gShed.Set(c.shedProb)

	decision := c.horizontal(p, o)

	c.obsC.EndSpan(span,
		obs.String("decision", decision),
		obs.Int("blocks", c.exec.Blocks()),
		obs.Int("backlog", o.backlog),
		obs.String("burn", fmt.Sprintf("%.3f", o.burn)),
		obs.String("shed", fmt.Sprintf("%.3f", c.shedProb)),
	)
}

// shedFor maps burn to a shed probability: 0 below ShedStart, linear
// up to MaxShed at ShedFull.
func (c *Controller) shedFor(burn float64) float64 {
	if burn <= c.spec.ShedStart {
		return 0
	}
	frac := (burn - c.spec.ShedStart) / (c.spec.ShedFull - c.spec.ShedStart)
	if frac > 1 {
		frac = 1
	}
	return frac * c.spec.MaxShed
}

// horizontal is the block axis: scale out on burn or backlog pressure,
// scale in (to MinBlocks) when the budget is comfortably unburnt, all
// the way to zero after sustained idleness.
func (c *Controller) horizontal(p *devent.Proc, o observation) string {
	blocks := c.exec.Blocks()
	workers := c.exec.Workers()
	now := p.Now()

	// Idle tracking: a tick with no arrivals and no backlog.
	if o.arrivals == 0 && o.backlog == 0 {
		c.idleFor += c.spec.Interval
	} else {
		c.idleFor = 0
	}

	// Wake from zero on any backlog, ignoring cooldowns: nothing can
	// serve the queue until a block exists, every queued task is paying
	// full cold start already.
	if blocks == 0 {
		if o.backlog > 0 {
			return c.scaleOut(p, c.spec.Step, "wake")
		}
		return "hold"
	}

	backlogPressure := workers > 0 && float64(o.backlog)/float64(workers) > c.spec.BacklogPerWorker
	if o.burn >= c.spec.BurnHigh || backlogPressure {
		if blocks >= c.spec.MaxBlocks {
			return "at-max"
		}
		if now-c.lastOut < c.spec.CooldownOut {
			return "cooldown-out"
		}
		n := c.spec.Step
		if blocks+n > c.spec.MaxBlocks {
			n = c.spec.MaxBlocks - blocks
		}
		reason := "burn"
		if o.burn < c.spec.BurnHigh {
			reason = "backlog"
		}
		return c.scaleOut(p, n, reason)
	}

	// Scale-to-zero after sustained idleness.
	if c.idleFor >= c.spec.IdleAfter && blocks > c.spec.MinBlocks {
		return c.scaleIn(p, blocks-c.spec.MinBlocks, "idle")
	}

	// Gentle scale-in when the budget is comfortably unburnt and the
	// backlog is trivial.
	if o.burn < c.spec.BurnLow && o.backlog == 0 && blocks > c.spec.MinBlocks {
		if blocks-1 < 1 {
			// Regular scale-in keeps at least one block; only the idle
			// path goes to zero.
			return "hold"
		}
		if now-c.lastIn < c.spec.CooldownIn || now-c.lastOut < c.spec.CooldownIn {
			return "cooldown-in"
		}
		return c.scaleIn(p, 1, "low-burn")
	}
	return "hold"
}

func (c *Controller) scaleOut(p *devent.Proc, n int, reason string) string {
	tspan := c.obsC.StartSpan("autoscale", "scale-out", "autoscale", 0,
		obs.Int("blocks", n), obs.String("reason", reason))
	err := c.exec.ScaleOut(p, n)
	if err != nil {
		c.obsC.EndSpan(tspan, obs.String("status", "failed"), obs.String("error", err.Error()))
		return "out-failed"
	}
	c.noteBlocks()
	c.lastOut = p.Now()
	c.scaleOuts++
	c.cOut.Add(float64(n))
	c.obsC.EndSpan(tspan)
	return "scale-out:" + reason
}

func (c *Controller) scaleIn(p *devent.Proc, n int, reason string) string {
	tspan := c.obsC.StartSpan("autoscale", "scale-in", "autoscale", 0,
		obs.Int("blocks", n), obs.String("reason", reason))
	got, err := c.exec.ScaleIn(p, n)
	if err != nil {
		c.obsC.EndSpan(tspan, obs.String("status", "failed"), obs.String("error", err.Error()))
		return "in-failed"
	}
	c.noteBlocks()
	c.lastIn = p.Now()
	c.scaleIns++
	c.cIn.Add(float64(got))
	c.obsC.EndSpan(tspan)
	return "scale-in:" + reason
}
