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
	if err := env.RunUntil(time.Second); err != nil {
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

// Inside Run a finished proc's goroutine serves the next Spawn and the
// idle pool holds at most maxIdle goroutines; when Run returns the pool
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
			t.Errorf("idle goroutines after a %d-proc burst = %d, want the cap %d", burst, env.nidle, maxIdle)
		}
		g := env.idle
		reused := env.Spawn("reuse", func(*Proc) {})
		if reused.resume != g.resume {
			t.Error("Spawn did not take the idle goroutine")
		}
		p.Wait(reused.Done())
		if env.idle != g {
			t.Error("reused goroutine did not return to the pool")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.nidle != 0 || env.idle != nil {
		t.Fatalf("%d idle goroutines left after Run", env.nidle)
	}
	if got := settledGoroutines(before); got > before {
		t.Fatalf("goroutines: %d before, %d after Run without Close", before, got)
	}
}

// A body that calls runtime.Goexit (t.Fatal) exits like one that
// returns: its Done fires and the scheduler does not hang.
func TestProcGoexit(t *testing.T) {
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
}

// A reused Spawn -> exit cycle allocates only the Proc and its Done
// event: the goroutine, its resume channel, the queue item, the
// waiter and the live-list link are all recycled.
func TestSpawnExitAllocs(t *testing.T) {
	env := NewEnv()
	body := func(*Proc) {}
	var got float64
	env.Spawn("driver", func(p *Proc) {
		cycle := func() { p.Wait(env.Spawn("cycle", body).Done()) }
		// Warm the goroutine pool and free lists; then each cycle may
		// allocate only the *Proc and its done *Event.
		cycle()
		got = testing.AllocsPerRun(100, cycle)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	const want = 2
	if got > want {
		t.Fatalf("Spawn->exit cycle: %v allocs, want <= %d", got, want)
	}
}
