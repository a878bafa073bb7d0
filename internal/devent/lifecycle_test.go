package devent

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// settledGoroutines polls until the goroutine count drops to want: an
// exiting goroutine is still counted for a moment after its last
// channel operation.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// Close unwinds parked and never-started procs, leaving no goroutine
// behind.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	gate := env.NewEvent()
	c := NewQueue[int](env)
	unwound := 0
	const parked = 10
	for i := 0; i < parked; i++ {
		env.Spawn("parked", func(p *Proc) {
			defer func() { unwound++ }()
			p.Wait(gate)
			t.Error("parked proc resumed")
		}).SetDaemon(true)
		env.Spawn("receiver", func(p *Proc) { c.Get(p) }).SetDaemon(true)
	}
	for i := 0; i < 50; i++ {
		env.Spawn("short", func(p *Proc) { p.Sleep(time.Duration(i) * time.Millisecond) })
	}
	env.Spawn("clock", func(p *Proc) { p.Sleep(time.Second) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Spawn("never-started", func(*Proc) { t.Error("never-started proc ran") })
	env.Close()
	env.Close() // idempotent
	if got := settledGoroutines(before); got > before {
		t.Fatalf("goroutines: %d before, %d after Close", before, got)
	}
	if unwound != parked {
		t.Fatalf("deferred calls ran in %d of %d unwound procs", unwound, parked)
	}
	if env.Now() != time.Second {
		t.Fatalf("Now after Close = %v", env.Now())
	}
	if err := env.Run(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
	env.Spawn("late", func(*Proc) { t.Error("proc on closed env ran") })
	if got := settledGoroutines(before); got > before {
		t.Fatalf("Spawn after Close started a goroutine: %d, want %d", got, before)
	}
}

// A deferred call that panics while Close unwinds its proc does not
// escape Close: the remaining deferred calls run, the goroutine ends
// and the next proc is unwound as usual.
func TestClosePanickingDefer(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	gate := env.NewEvent()
	unwound := 0
	for i := 0; i < 3; i++ {
		env.Spawn("panicky", func(p *Proc) {
			defer func() { unwound++ }()
			defer func() { panic("deferred call panicked during Close") }()
			p.Wait(gate)
		}).SetDaemon(true)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Close()
	if unwound != 3 {
		t.Fatalf("outer deferred calls ran in %d of 3 unwound procs", unwound)
	}
	if got := settledGoroutines(before); got > before {
		t.Fatalf("goroutines: %d before, %d after Close", before, got)
	}
}

// A deferred recover that swallows the unwind panic does not keep a
// proc alive: Close still unwinds it and its coroutine ends.
func TestCloseRecoveringDefer(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	gate := env.NewEvent()
	for i := 0; i < 3; i++ {
		env.Spawn("recovering", func(p *Proc) {
			defer func() { recover() }()
			p.Wait(gate)
			t.Error("parked proc resumed")
		}).SetDaemon(true)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Close()
	if got := settledGoroutines(before); got > before {
		t.Fatalf("goroutines: %d before, %d after Close", before, got)
	}
}

// Inside Run a finished proc's coroutine serves the next Spawn and the
// idle pool holds at most maxIdle coroutines; when Run returns the pool
// is empty, so an Env that is never closed strands none.
func TestProcGoroutinePool(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	const burst = 3 * maxIdle
	env.Spawn("driver", func(p *Proc) {
		done := make([]*Event, burst)
		for i := range done {
			done[i] = env.NewEvent()
			env.Spawn("burst", func(p *Proc) {
				p.Sleep(time.Millisecond)
				done[i].Fire(nil)
			})
		}
		for _, ev := range done {
			p.Wait(ev)
		}
		if env.nidle != maxIdle {
			t.Errorf("idle coroutines after a %d-proc burst = %d, want the cap %d", burst, env.nidle, maxIdle)
		}
		g := env.idle
		reusedDone := env.NewEvent()
		reused := env.Spawn("reuse", func(*Proc) { reusedDone.Fire(nil) })
		if reused.g != g {
			t.Error("Spawn did not take the idle coroutine")
		}
		p.Wait(reusedDone)
		if env.idle != g {
			t.Error("reused coroutine did not return to the pool")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.nidle != 0 || env.idle != nil {
		t.Fatalf("%d idle coroutines left after Run", env.nidle)
	}
	if got := settledGoroutines(before); got > before {
		t.Fatalf("goroutines: %d before, %d after Run without Close", before, got)
	}
}

// A body that calls runtime.Goexit (t.Fatal) exits like one that
// returns: its deferred calls run, it leaves the live list, the
// scheduler does not hang, and its coroutine ends.
func TestProcGoexit(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	exited := env.NewEvent()
	env.Spawn("goexit", func(*Proc) {
		defer exited.Fire(nil)
		runtime.Goexit()
	})
	ran := false
	env.Spawn("after", func(p *Proc) {
		p.Wait(exited)
		ran = true
	})
	if err := env.Run(); err != nil || !ran {
		t.Fatalf("after Goexit: err=%v ran=%v", err, ran)
	}
	if env.live.head != nil {
		t.Fatalf("proc %s still live after Run", env.live.head.Name())
	}
	if got := settledGoroutines(before); got > before {
		t.Fatalf("goroutines: %d before, %d after Run", before, got)
	}
}

// A reused Spawn -> exit cycle allocates only the Proc: the coroutine,
// the queue item and the live-list link are all recycled. The child's
// last statement hands the driver a token through a queue, whose
// waiter is pooled.
func TestSpawnExitAllocs(t *testing.T) {
	env := NewEnv()
	exited := NewQueue[struct{}](env)
	body := func(*Proc) { exited.Put(struct{}{}) }
	var got float64
	env.Spawn("driver", func(p *Proc) {
		cycle := func() {
			env.Spawn("cycle", body)
			exited.Get(p)
		}
		// Warm the coroutine pool and free lists; then each cycle may
		// allocate only the *Proc.
		cycle()
		got = testing.AllocsPerRun(100, cycle)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	const want = 1
	if got > want {
		t.Fatalf("Spawn->exit cycle: %v allocs, want <= %d", got, want)
	}
}

// A queue whose length stays bounded stops allocating: its buffer and
// its receiver queue keep their backing arrays as values pass, and a
// parked Get reuses its pooled waiter.
func TestChanSteadyStateAllocs(t *testing.T) {
	const runs = 100
	env := NewEnv()
	c := NewQueue[int](env)
	var buffered, parked float64
	env.Spawn("receiver", func(p *Proc) {
		c.Put(0) // one value stays queued while others pass
		buffered = testing.AllocsPerRun(runs, func() {
			c.Put(1)
			c.TryGet()
		})
		c.TryGet()
		parked = testing.AllocsPerRun(runs, func() { c.Get(p) })
	})
	env.Spawn("sender", func(p *Proc) {
		for i := 0; i <= runs; i++ { // AllocsPerRun adds a warm-up run
			p.Sleep(time.Microsecond)
			c.Put(i)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if buffered != 0 || parked != 0 {
		t.Fatalf("queue allocs: %v per buffered pass, %v per parked get; want 0", buffered, parked)
	}
}

// A Sleep round trip, a switch into the scheduler and back, allocates
// nothing.
func TestProcSwitchAllocs(t *testing.T) {
	env := NewEnv()
	var got float64
	env.Spawn("sleeper", func(p *Proc) {
		got = testing.AllocsPerRun(100, func() { p.Sleep(time.Microsecond) })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("Sleep round trip: %v allocs, want 0", got)
	}
}

// chainStep awaits each of its events in turn with Then.
type chainStep struct {
	evs []*Event
	i   int
}

func (s *chainStep) Step() {
	if s.i < len(s.evs) {
		s.evs[s.i].Then(s)
		s.i++
	}
}

// A steady two-waiter fire, a proc parked in Wait and a Step awaiting
// with Then, allocates only the event's waiters slice: the waiters and
// the fanout Step that resumes both come from the Env's pools.
func TestEventFanoutAllocs(t *testing.T) {
	const runs = 100
	env := NewEnv()
	evs := make([]*Event, runs+2) // one warm-up fire, and AllocsPerRun's
	for i := range evs {
		evs[i] = env.NewEvent()
	}
	(&chainStep{evs: evs}).Step()
	env.Spawn("waiter", func(p *Proc) {
		for _, ev := range evs {
			p.Wait(ev)
		}
	})
	var got float64
	env.Spawn("firer", func(p *Proc) {
		i := 0
		fire := func() {
			p.Sleep(time.Microsecond) // both waiters register on evs[i]
			evs[i].Fire(nil)
			i++
		}
		fire() // warm the pools
		got = testing.AllocsPerRun(runs, fire)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	const want = 1
	if got > want {
		t.Fatalf("two-waiter fire: %v allocs, want <= %d", got, want)
	}
}

// WaitTimeout allocates nothing once its waiter is pooled, whether the
// timeout wins or the event fires first.
func TestWaitTimeoutAllocs(t *testing.T) {
	const runs = 100
	env := NewEnv()
	never := env.NewNamedEvent("never")
	evs := make([]*Event, runs+2) // AllocsPerRun adds a warm-up run
	for i := range evs {
		evs[i] = env.NewEvent()
	}
	var timedOut, fired float64
	env.Spawn("firer", func(p *Proc) {
		p.Sleep(time.Second)
		for _, ev := range evs {
			p.Sleep(time.Microsecond)
			ev.Fire(nil)
		}
	})
	env.Spawn("waiter", func(p *Proc) {
		p.WaitTimeout(never, time.Microsecond) // warm the waiter pool
		timedOut = testing.AllocsPerRun(runs, func() {
			if _, err := p.WaitTimeout(never, time.Microsecond); !errors.Is(err, ErrTimeout) {
				t.Errorf("WaitTimeout on a never-fired event: %v", err)
			}
		})
		p.Sleep(time.Second - p.Now())
		i := 0
		fired = testing.AllocsPerRun(runs, func() {
			if _, err := p.WaitTimeout(evs[i], time.Hour); err != nil {
				t.Errorf("WaitTimeout on event %d: %v", i, err)
			}
			i++
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if timedOut != 0 || fired != 0 {
		t.Fatalf("WaitTimeout allocs: %v on timeout, %v when the event fired first; want 0", timedOut, fired)
	}
}
