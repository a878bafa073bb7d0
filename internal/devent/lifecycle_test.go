package devent

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// leakOps is how many cancellable operations each leak test runs
// against one long-lived cancel event.
const leakOps = 10_000

// maxListeners bounds the slots a long-lived event may hold while at
// most one operation waits on it at a time.
const maxListeners = 2

// Each completed RecvOr detaches from its cancel event, so 10k
// receives against one never-firing cancel leave it (nearly) empty.
func TestRecvOrDetachesFromCancel(t *testing.T) {
	env := NewEnv()
	c := NewChan[int](env, 0)
	cancel := env.NewNamedEvent("shutdown")
	env.Spawn("producer", func(p *Proc) {
		for i := 0; i < leakOps; i++ {
			p.Sleep(time.Microsecond) // the receiver blocks first
			c.Send(p, i)
		}
	})
	high := 0
	env.Spawn("consumer", func(p *Proc) {
		for i := 0; i < leakOps; i++ {
			v, ok, cancelled := c.RecvOr(p, cancel)
			if !ok || cancelled || v != i {
				t.Errorf("recv %d: v=%d ok=%v cancelled=%v", i, v, ok, cancelled)
				return
			}
			high = max(high, cancel.Listeners())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if high > maxListeners || cancel.Listeners() != 0 {
		t.Fatalf("cancel event holds %d listeners (high-water %d) after %d receives", cancel.Listeners(), high, leakOps)
	}
}

// Each granted AcquireOr detaches from its cancel event.
func TestAcquireOrDetachesFromCancel(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	cancel := env.NewNamedEvent("kill")
	env.Spawn("holder", func(p *Proc) {
		for i := 0; i < leakOps; i++ {
			r.Acquire(p, 1)
			p.Sleep(time.Microsecond) // the acquirer queues behind us
			r.Release(1)
			p.Yield()
		}
	})
	high := 0
	env.Spawn("acquirer", func(p *Proc) {
		for i := 0; i < leakOps; i++ {
			if !r.AcquireOr(p, 1, cancel) {
				t.Errorf("acquire %d cancelled", i)
				return
			}
			high = max(high, cancel.Listeners())
			r.Release(1)
			p.Yield()
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if high > maxListeners || cancel.Listeners() != 0 {
		t.Fatalf("cancel event holds %d listeners (high-water %d) after %d acquires", cancel.Listeners(), high, leakOps)
	}
}

// An AnyOf detaches from its other inputs once one fires, so 10k of
// them over a never-firing input do not accumulate on it.
func TestAnyOfDetachesFromUnfiredInputs(t *testing.T) {
	env := NewEnv()
	never := env.NewNamedEvent("never")
	high := 0
	env.Spawn("loop", func(p *Proc) {
		for i := 0; i < leakOps; i++ {
			tick := env.NewEvent()
			env.Schedule(time.Microsecond, func() { tick.Fire(nil) })
			v, err := p.Wait(AnyOf(env, never, tick))
			if err != nil || v != tick {
				t.Errorf("anyOf %d: v=%v err=%v", i, v, err)
				return
			}
			high = max(high, never.Listeners())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if high > maxListeners || never.Listeners() != 0 {
		t.Fatalf("never-firing input holds %d listeners (high-water %d) after %d AnyOfs", never.Listeners(), high, leakOps)
	}
}

// Detaching one listener keeps the others firing in registration
// order, across compactions.
func TestDetachKeepsListenerOrder(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent()
	var got []int
	var regs []registration
	for i := 0; i < 8; i++ {
		i := i
		regs = append(regs, ev.listen(funcListener(func(*Event) { got = append(got, i) })))
	}
	for _, i := range []int{1, 2, 5, 6, 0} {
		regs[i].detach()
		regs[i].detach() // a second detach is a no-op
	}
	ev.OnFire(func(*Event) { got = append(got, 8) })
	ev.Fire(nil)
	want := []int{3, 4, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	regs[3].detach() // after firing: a no-op
}

// A cancel that fires while the op waits still cancels it.
func TestRecvOrCancelAfterDetaches(t *testing.T) {
	env := NewEnv()
	c := NewChan[int](env, 0)
	cancel := env.NewEvent()
	env.Schedule(time.Second, func() { cancel.Fire(nil) })
	env.Spawn("sender", func(p *Proc) { c.Send(p, 0) })
	env.Spawn("consumer", func(p *Proc) {
		if _, _, cancelled := c.RecvOr(p, cancel); cancelled {
			t.Error("first receive cancelled")
		}
		if _, ok, cancelled := c.RecvOr(p, cancel); ok || !cancelled {
			t.Errorf("second receive: ok=%v cancelled=%v", ok, cancelled)
		}
		if p.Now() != time.Second {
			t.Errorf("cancelled at %v", p.Now())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

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
// behind; unwound procs fire no Done.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	gate := env.NewEvent()
	c := NewChan[int](env, 0)
	unwound := 0
	var parked []*Proc
	for i := 0; i < 10; i++ {
		p := env.Spawn("parked", func(p *Proc) {
			defer func() { unwound++ }()
			p.Wait(gate)
			t.Error("parked proc resumed")
		})
		p.SetDaemon(true)
		parked = append(parked, p)
		env.Spawn("receiver", func(p *Proc) { c.Recv(p) }).SetDaemon(true)
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
	if unwound != len(parked) {
		t.Fatalf("deferred calls ran in %d of %d unwound procs", unwound, len(parked))
	}
	for _, p := range parked {
		if p.Done().Fired() {
			t.Fatal("unwound proc fired Done")
		}
	}
	if env.Now() != time.Second {
		t.Fatalf("Now after Close = %v", env.Now())
	}
	if err := env.Run(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
	if p := env.Spawn("late", func(*Proc) { t.Error("proc on closed env ran") }); p.Done().Fired() {
		t.Fatal("late proc fired Done")
	}
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
// proc alive: Close still unwinds it, its Done stays unfired and its
// coroutine ends.
func TestCloseRecoveringDefer(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	gate := env.NewEvent()
	var procs []*Proc
	for i := 0; i < 3; i++ {
		procs = append(procs, env.Spawn("recovering", func(p *Proc) {
			defer func() { recover() }()
			p.Wait(gate)
			t.Error("parked proc resumed")
		}))
		procs[i].SetDaemon(true)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Close()
	for _, p := range procs {
		if p.Done().Fired() {
			t.Fatal("unwound proc fired Done")
		}
	}
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
		procs := make([]*Proc, burst)
		for i := range procs {
			procs[i] = env.Spawn("burst", func(p *Proc) { p.Sleep(time.Millisecond) })
		}
		for _, bp := range procs {
			p.Wait(bp.Done())
		}
		if env.nidle != maxIdle {
			t.Errorf("idle coroutines after a %d-proc burst = %d, want the cap %d", burst, env.nidle, maxIdle)
		}
		g := env.idle
		reused := env.Spawn("reuse", func(*Proc) {})
		if reused.g != g {
			t.Error("Spawn did not take the idle coroutine")
		}
		p.Wait(reused.Done())
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
// returns: its Done fires, the scheduler does not hang, and its
// coroutine ends.
func TestProcGoexit(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	exited := env.Spawn("goexit", func(*Proc) { runtime.Goexit() })
	ran := false
	env.Spawn("after", func(p *Proc) {
		p.Wait(exited.Done())
		ran = true
	})
	if err := env.Run(); err != nil || !ran {
		t.Fatalf("after Goexit: err=%v ran=%v", err, ran)
	}
	if got := settledGoroutines(before); got > before {
		t.Fatalf("goroutines: %d before, %d after Run", before, got)
	}
}

// A reused Spawn -> exit cycle allocates only the Proc, which embeds
// its Done event: the coroutine, the queue item, the waiter and the
// live-list link are all recycled.
func TestSpawnExitAllocs(t *testing.T) {
	env := NewEnv()
	body := func(*Proc) {}
	var got float64
	env.Spawn("driver", func(p *Proc) {
		cycle := func() { p.Wait(env.Spawn("cycle", body).Done()) }
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

// A channel whose length stays bounded stops allocating: its buffer
// and its receiver queue keep their backing arrays as values pass.
func TestChanSteadyStateAllocs(t *testing.T) {
	const runs = 100
	env := NewEnv()
	c := NewChan[int](env, 8)
	var buffered, parked float64
	env.Spawn("receiver", func(p *Proc) {
		c.TrySend(0) // one value stays queued while others pass
		buffered = testing.AllocsPerRun(runs, func() {
			c.TrySend(1)
			c.TryRecv()
		})
		c.TryRecv()
		parked = testing.AllocsPerRun(runs, func() { c.Recv(p) })
	})
	env.Spawn("sender", func(p *Proc) {
		for i := 0; i <= runs; i++ { // AllocsPerRun adds a warm-up run
			p.Sleep(time.Microsecond)
			c.TrySend(i)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if buffered != 0 || parked != 0 {
		t.Fatalf("channel allocs: %v per buffered pass, %v per parked receive; want 0", buffered, parked)
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
