package devent

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"testing"
	"time"
)

// queueModel is the reference Queue: a plain slice of values and a
// plain slice of waiting gets, updated at the instant each Put, get
// and withdrawal happens. It says which value each get returns,
// whether it was withdrawn, and at what virtual time.
type queueModel struct {
	buf     []int
	waiting []*modelGet
}

// modelGet is one get as the model resolves it; r is the Step
// receiver that made it, nil for a proc.
type modelGet struct {
	r        *stepReceiver
	resolved bool
	val      int
	ok       bool
	at       time.Duration
}

func (m *queueModel) put(v int, now time.Duration) {
	if len(m.waiting) > 0 {
		g := m.waiting[0]
		m.waiting = m.waiting[1:]
		g.resolved, g.val, g.ok, g.at = true, v, true, now
		return
	}
	m.buf = append(m.buf, v)
}

// get starts r's get at now: it takes the oldest value, or waits.
func (m *queueModel) get(r *stepReceiver, now time.Duration) *modelGet {
	g := &modelGet{r: r}
	if len(m.buf) > 0 {
		g.resolved, g.val, g.ok, g.at = true, m.buf[0], true, now
		m.buf = m.buf[1:]
	} else {
		m.waiting = append(m.waiting, g)
	}
	return g
}

func (m *queueModel) tryGet() (int, bool) {
	if len(m.buf) == 0 {
		return 0, false
	}
	v := m.buf[0]
	m.buf = m.buf[1:]
	return v, true
}

// withdraw resolves r's waiting get, if it has one, with ok false.
func (m *queueModel) withdraw(r *stepReceiver, now time.Duration) bool {
	for i, g := range m.waiting {
		if g.r == r {
			m.waiting = append(m.waiting[:i], m.waiting[i+1:]...)
			g.resolved, g.at = true, now
			return true
		}
	}
	return false
}

// runQueueProgram drives a Queue and the model through one random
// program drawn from PCG(s1, s2): Puts from scheduled callbacks and
// from receivers, TryGets, gets on several receivers, and withdrawals
// of Step receivers at random instants, often instants that other
// operations share. Each receiver is randomly a proc, which blocks in
// Get and Sleep and is never withdrawn, or a Step, which registers with
// Then, queues itself with ScheduleStep and may be withdrawn at once
// (a caller already stopped) or later, maybe after its get resolved;
// both are checked against the same model. It returns the first
// disagreement between the Queue and the model.
func runQueueProgram(s1, s2 uint64) error {
	rng := rand.New(rand.NewPCG(s1, s2))
	env := NewEnv()
	q := NewQueue[int](env)
	var m queueModel
	var bad error
	fail := func(format string, args ...any) {
		if bad == nil {
			bad = fmt.Errorf("at %v: "+format, append([]any{env.Now()}, args...)...)
		}
	}
	// when draws a delay on a coarse grid, so distinct operations
	// share instants.
	when := func() time.Duration { return time.Duration(rng.IntN(8)) * time.Microsecond }
	next := 0
	// resolving is set while a Put or a Withdraw runs: a get they
	// resolve returns in a queue slot of its own, never inside them.
	resolving := false
	put := func() {
		next++
		m.put(next, env.Now())
		resolving = true
		q.Put(next)
		resolving = false
	}
	for n := rng.IntN(40); n > 0; n-- {
		env.Schedule(when()+when(), put)
	}
	// withdraw withdraws r in the queue and the model, which must agree
	// on whether r had a get waiting.
	withdraw := func(r *stepReceiver) {
		want := m.withdraw(r, env.Now())
		resolving = true
		got := q.Withdraw(r)
		resolving = false
		if got != want {
			fail("Withdraw = %v; model %v", got, want)
		}
	}
	var issued, returned int
	startGet := func(r *stepReceiver) *modelGet {
		issued++
		return m.get(r, env.Now())
	}
	// got checks a get's outcome, in value and in virtual time.
	got := func(g *modelGet, v int, ok bool) {
		returned++
		if resolving {
			fail("get returned inside the Put or Withdraw that resolved it")
		}
		if !g.resolved || v != g.val || ok != g.ok || env.Now() != g.at {
			fail("get = %d, %v at %v; model %+v", v, ok, env.Now(), *g)
		}
	}
	// op runs one operation that does not wait and reports whether it
	// was one; otherwise the receiver gets (true) or sleeps (false).
	op := func() (done, get bool) {
		switch op := rng.IntN(10); {
		case op < 2:
			v, ok := q.TryGet()
			if mv, mok := m.tryGet(); v != mv || ok != mok {
				fail("TryGet = %d, %v; model %d, %v", v, ok, mv, mok)
			}
			return true, false
		case op < 6:
			return false, true
		case op < 8:
			return false, false
		default:
			put()
			return true, false
		}
	}
	receivers := 1 + rng.IntN(4)
	for i := 0; i < receivers; i++ {
		steps := rng.IntN(30)
		if rng.IntN(2) == 0 {
			r := &stepReceiver{env: env, q: q, steps: steps, op: op,
				startGet: startGet, got: got, when: when, bad: &bad}
			// withdrawAt draws what happens to a get that waits: no
			// withdrawal, one at once, or one later, maybe at this
			// instant, of whatever r then waits on.
			r.withdrawAt = func() {
				switch rng.IntN(4) {
				case 0:
				case 1:
					withdraw(r)
				default:
					env.Schedule(when(), func() { withdraw(r) })
				}
			}
			env.ScheduleStep(0, r)
			continue
		}
		// A proc whose last get never resolves stays parked; as a
		// daemon it does not count as a deadlock.
		env.Spawn(fmt.Sprintf("getter%d", i), func(p *Proc) {
			for s := 0; s < steps && bad == nil; s++ {
				switch done, get := op(); {
				case done:
				case get:
					g := startGet(nil)
					got(g, q.Get(p), true)
				default:
					p.Sleep(when())
				}
			}
		}).SetDaemon(true)
	}
	if err := env.Run(); err != nil {
		return err
	}
	if bad != nil {
		return bad
	}
	// Every get the model resolved has returned; the rest still wait.
	if issued-returned != len(m.waiting) {
		return fmt.Errorf("%d gets still waiting, model has %d waiting", issued-returned, len(m.waiting))
	}
	if q.Len() != len(m.buf) {
		return fmt.Errorf("Len = %d at the end, model holds %d", q.Len(), len(m.buf))
	}
	for len(m.buf) > 0 {
		v, _ := q.TryGet()
		if mv, _ := m.tryGet(); v != mv {
			return fmt.Errorf("left in the queue: %d, model %d", v, mv)
		}
	}
	return nil
}

// stepReceiver is runQueueProgram's receiver as a Step: it runs the
// same operations as a getter proc, taking values with Then and
// sleeping with ScheduleStep.
type stepReceiver struct {
	env        *Env
	q          *Queue[int]
	steps      int
	op         func() (done, get bool)
	startGet   func(*stepReceiver) *modelGet
	got        func(*modelGet, int, bool)
	when       func() time.Duration
	withdrawAt func()
	bad        *error
	// g is the model's view of the get Receive completes.
	g *modelGet
}

// Step runs operations until the receiver waits or its steps run out.
func (r *stepReceiver) Step() {
	for ; r.steps > 0 && *r.bad == nil; r.steps-- {
		switch done, get := r.op(); {
		case done:
		case get:
			g := r.startGet(r)
			if v, ok := r.q.Then(r); ok {
				r.got(g, v, true)
				continue
			}
			r.g = g
			r.steps--
			r.withdrawAt()
			return
		default:
			r.env.ScheduleStep(r.when(), r)
			r.steps--
			return
		}
	}
}

func (r *stepReceiver) Receive(v int, ok bool) {
	r.got(r.g, v, ok)
	r.Step()
}

// Random programs deliver exactly what the slice model does: each
// value to the longest-waiting get, each withdrawn get ok=false, both
// at the model's virtual time. The seeds come from the clock and are
// logged, so a failure can be replayed.
func TestQueueMatchesModel(t *testing.T) {
	seed1 := uint64(time.Now().UnixNano())
	seed2 := bits.Reverse64(uint64(time.Now().UnixNano()))
	t.Logf("seed1 = %d, seed2 = %d", seed1, seed2)
	for i := uint64(0); i < 500; i++ {
		if err := runQueueProgram(seed1+i, seed2); err != nil {
			t.Fatalf("program seed1+%d: %v", i, err)
		}
	}
}

func FuzzQueue(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(7), uint64(0))
	f.Add(uint64(1)<<63, uint64(12345))
	f.Fuzz(func(t *testing.T, s1, s2 uint64) {
		if err := runQueueProgram(s1, s2); err != nil {
			t.Fatal(err)
		}
	})
}
