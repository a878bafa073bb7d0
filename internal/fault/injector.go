package fault

import (
	"errors"
	"math/rand"
	"time"

	"repro/internal/devent"
	"repro/internal/obs"
)

// ErrInjected fails dispatch attempts hit by KindSubmit faults; it is
// transient, so the DFK's retry policy recovers from it.
var ErrInjected = errors.New("fault: injected transient submit failure")

// WorkerPool is the executor surface the injector kills workers
// through (implemented by htex.HTEX).
type WorkerPool interface {
	Label() string
	WorkerNames() []string
	KillWorker(name string) bool
}

// Device is the GPU surface for ECC-style context loss (implemented
// by simgpu.Device).
type Device interface {
	Name() string
	ContextNames() []string
	InjectContextLoss(name string) bool
}

// Fault records one injected fault (for hooks and tests).
type Fault struct {
	At     time.Duration
	Kind   Kind
	Target string
}

// Injector drives a chaos run: attach targets, Start, and faults
// arrive on virtual time per the Spec until Until/MaxFaults/Stop.
type Injector struct {
	env  *devent.Env
	spec Spec
	obs  *obs.Collector
	// arrivalRng drives fault timing and target picks; submitRng
	// drives per-dispatch failure draws. Separate streams keep the
	// schedule independent of how many tasks a workload submits.
	arrivalRng *rand.Rand
	submitRng  *rand.Rand

	pools []WorkerPool
	devs  []Device

	injected int
	started  bool
	stopped  bool
	timer    *devent.Timer
	onFault  func(Fault)
}

// New creates an injector over env; a nil collector gets a private
// one.
func New(env *devent.Env, spec Spec, c *obs.Collector) *Injector {
	if c == nil {
		c = obs.New(env)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{
		env:        env,
		spec:       spec,
		obs:        c,
		arrivalRng: rand.New(rand.NewSource(seed)),
		submitRng:  rand.New(rand.NewSource(seed + 1)),
	}
}

// Spec returns the injector's configuration.
func (i *Injector) Spec() Spec { return i.spec }

// Injected reports how many faults have fired so far.
func (i *Injector) Injected() int { return i.injected }

// OnFault installs a hook receiving every injected fault (tests use
// it to assert determinism).
func (i *Injector) OnFault(fn func(Fault)) { i.onFault = fn }

// AttachPool adds a worker pool as a KindWorker/KindReconfig target.
func (i *Injector) AttachPool(p WorkerPool) { i.pools = append(i.pools, p) }

// AttachDevice adds a GPU as a KindGPU target.
func (i *Injector) AttachDevice(d Device) { i.devs = append(i.devs, d) }

// SubmitFault implements the DFK dispatch-fault hook: with
// SubmitFailProb it fails the attempt with ErrInjected. Draws happen
// in simulation-event order, so they are deterministic per seed.
func (i *Injector) SubmitFault() error {
	if i.stopped || i.spec.SubmitFailProb <= 0 || !i.spec.enabled(KindSubmit) {
		return nil
	}
	if !i.inWindow(i.env.Now()) {
		return nil
	}
	if i.submitRng.Float64() < i.spec.SubmitFailProb {
		i.record(Fault{At: i.env.Now(), Kind: KindSubmit, Target: "dispatch"})
		return ErrInjected
	}
	return nil
}

// At schedules one specific fault at virtual time t (absolute). An
// empty target picks the first candidate in listing order at fire
// time. Scheduled faults ignore After/Until but count against
// MaxFaults.
func (i *Injector) At(t time.Duration, kind Kind, target string) {
	i.env.ScheduleAt(t, func() {
		if i.stopped || i.capped() {
			return
		}
		i.fire(kind, target)
	})
}

// Start begins the random arrival process (no-op when Rate is 0).
func (i *Injector) Start() {
	if i.started {
		return
	}
	i.started = true
	if i.spec.Rate <= 0 {
		return
	}
	base := i.env.Now()
	if i.spec.After > base {
		base = i.spec.After
	}
	i.arm(base + i.interarrival())
}

// Stop cancels future arrivals; faults already firing complete.
// Idempotent.
func (i *Injector) Stop() {
	i.stopped = true
	i.timer.Cancel()
	i.timer = nil
}

func (i *Injector) interarrival() time.Duration {
	return time.Duration(i.arrivalRng.ExpFloat64() / i.spec.Rate * float64(time.Second))
}

func (i *Injector) capped() bool {
	return i.spec.MaxFaults > 0 && i.injected >= i.spec.MaxFaults
}

func (i *Injector) inWindow(t time.Duration) bool {
	if t < i.spec.After {
		return false
	}
	return i.spec.Until == 0 || t <= i.spec.Until
}

func (i *Injector) arm(at time.Duration) {
	if i.stopped || i.capped() {
		return
	}
	if i.spec.Until > 0 && at > i.spec.Until {
		return
	}
	i.timer = i.env.Schedule(at-i.env.Now(), func() {
		if i.stopped {
			return
		}
		i.injectRandom()
		i.arm(i.env.Now() + i.interarrival())
	})
}

// candidate is one injectable fault target.
type candidate struct {
	kind   Kind
	target string
	fire   func() bool
}

// candidates lists every currently injectable fault in a fixed,
// deterministic order: kinds in kindOrder, then targets in attach /
// listing order. Never iterates a map.
func (i *Injector) candidates(only Kind, target string) []candidate {
	var out []candidate
	add := func(c candidate) {
		if only != "" && c.kind != only {
			return
		}
		if target != "" && c.target != target {
			return
		}
		out = append(out, c)
	}
	for _, kind := range kindOrder {
		if !i.spec.enabled(kind) && only == "" {
			continue
		}
		switch kind {
		case KindWorker:
			for _, p := range i.pools {
				pool := p
				for _, name := range pool.WorkerNames() {
					n := name
					add(candidate{kind, n, func() bool { return pool.KillWorker(n) }})
				}
			}
		case KindGPU:
			for _, d := range i.devs {
				dev := d
				for _, name := range dev.ContextNames() {
					n := name
					add(candidate{kind, n, func() bool { return dev.InjectContextLoss(n) }})
				}
			}
		case KindReconfig:
			for _, p := range i.pools {
				pool := p
				add(candidate{kind, pool.Label(), func() bool {
					names := pool.WorkerNames()
					killed := false
					for _, n := range names {
						if pool.KillWorker(n) {
							killed = true
						}
					}
					return killed
				}})
			}
		}
	}
	return out
}

// injectRandom fires one fault at a uniformly drawn candidate; when
// nothing is currently injectable the arrival passes harmlessly.
func (i *Injector) injectRandom() {
	cands := i.candidates("", "")
	if len(cands) == 0 {
		return
	}
	c := cands[i.arrivalRng.Intn(len(cands))]
	i.fireCandidate(c)
}

// fire injects a specific kind (first matching candidate).
func (i *Injector) fire(kind Kind, target string) bool {
	cands := i.candidates(kind, target)
	if len(cands) == 0 {
		return false
	}
	return i.fireCandidate(cands[0])
}

func (i *Injector) fireCandidate(c candidate) bool {
	if !c.fire() {
		return false
	}
	i.record(Fault{At: i.env.Now(), Kind: c.kind, Target: c.target})
	return true
}

func (i *Injector) record(f Fault) {
	i.injected++
	i.obs.Metrics().Counter("fault_injected_total", obs.L("kind", string(f.Kind))).Inc()
	i.obs.AddSpan("fault", string(f.Kind), "faults", 0, f.At, f.At,
		obs.String("target", f.Target))
	if i.onFault != nil {
		i.onFault(f)
	}
}
