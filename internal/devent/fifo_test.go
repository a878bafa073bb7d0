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
// and cancel happens. It says which value each get returns, whether it
// was cancelled, and at what virtual time.
type queueModel struct {
	buf     []int
	waiting []*modelGet
}

// modelGet is one get as the model resolves it.
type modelGet struct {
	resolved bool
	val      int
	ok       bool
	at       time.Duration
}

func (m *queueModel) put(v int, now time.Duration) {
	if len(m.waiting) > 0 {
		g := m.waiting[0]
		m.waiting = m.waiting[1:]
		*g = modelGet{resolved: true, val: v, ok: true, at: now}
		return
	}
	m.buf = append(m.buf, v)
}

// get starts a get at now: it takes the oldest value, is cancelled at
// once when its cancel has already fired, or waits.
func (m *queueModel) get(cancelled bool, now time.Duration) *modelGet {
	g := &modelGet{}
	switch {
	case len(m.buf) > 0:
		*g = modelGet{resolved: true, val: m.buf[0], ok: true, at: now}
		m.buf = m.buf[1:]
	case cancelled:
		*g = modelGet{resolved: true, at: now}
	default:
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

// cancel withdraws g if it still waits.
func (m *queueModel) cancel(g *modelGet, now time.Duration) {
	for i, w := range m.waiting {
		if w == g {
			m.waiting = append(m.waiting[:i], m.waiting[i+1:]...)
			*g = modelGet{resolved: true, at: now}
			return
		}
	}
}

// runQueueProgram drives a Queue and the model through one random
// program drawn from PCG(s1, s2): Puts from scheduled callbacks and
// from procs, TryGets, and Gets on several procs whose cancels fire at
// random times, often at instants that other operations share. It
// returns the first disagreement between the two.
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
	put := func() {
		next++
		m.put(next, env.Now())
		q.Put(next)
	}
	for n := rng.IntN(40); n > 0; n-- {
		env.Schedule(when()+when(), put)
	}
	var issued, returned int
	procs := 1 + rng.IntN(4)
	for i := 0; i < procs; i++ {
		steps := rng.IntN(30)
		// A proc whose last get never resolves stays parked; as a
		// daemon it does not count as a deadlock.
		env.Spawn(fmt.Sprintf("getter%d", i), func(p *Proc) {
			for s := 0; s < steps && bad == nil; s++ {
				switch op := rng.IntN(10); {
				case op < 2:
					v, ok := q.TryGet()
					if mv, mok := m.tryGet(); v != mv || ok != mok {
						fail("TryGet = %d, %v; model %d, %v", v, ok, mv, mok)
					}
				case op < 6:
					var cancel *Event
					var g *modelGet
					switch rng.IntN(4) {
					case 0: // no cancel
					case 1: // already fired
						cancel = env.NewEvent()
						cancel.Fire(nil)
					default: // fires later, maybe at this instant
						cancel = env.NewEvent()
						env.Schedule(when(), func() {
							m.cancel(g, env.Now())
							cancel.Fire(nil)
						})
					}
					g = m.get(cancel != nil && cancel.Fired(), p.Now())
					issued++
					v, ok := q.Get(p, cancel)
					returned++
					if !g.resolved || v != g.val || ok != g.ok || p.Now() != g.at {
						fail("Get = %d, %v at %v; model %+v", v, ok, p.Now(), *g)
					}
				case op < 8:
					p.Sleep(when())
				default:
					put()
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
		return fmt.Errorf("%d gets still parked, model has %d waiting", issued-returned, len(m.waiting))
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

// Random programs deliver exactly what the slice model does: each
// value to the longest-waiting get, each cancelled get ok=false, both
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
