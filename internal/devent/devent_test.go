package devent

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	env := NewEnv()
	var got []int
	env.Schedule(3*time.Second, func() { got = append(got, 3) })
	env.Schedule(1*time.Second, func() { got = append(got, 1) })
	env.Schedule(2*time.Second, func() { got = append(got, 2) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("order = %v", got)
	}
	if env.Now() != 3*time.Second {
		t.Fatalf("Now = %v", env.Now())
	}
}

func TestScheduleTieBreaksBySeq(t *testing.T) {
	env := NewEnv()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		env.Schedule(time.Second, func() { got = append(got, i) })
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken: %v", got)
		}
	}
}

func TestTimerCancel(t *testing.T) {
	env := NewEnv()
	fired := false
	tm := env.Schedule(time.Second, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active")
	}
	if !tm.Cancel() {
		t.Fatal("first cancel should report true")
	}
	if tm.Cancel() {
		t.Fatal("second cancel should report false")
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

// TestArmAtReArmsInPlace pins the caller-owned timer contract: a
// re-arm replaces the pending item, Active and When follow the latest
// arm, and a stale copy of the handle cannot cancel anything once its
// item is replaced or recycled.
func TestArmAtReArmsInPlace(t *testing.T) {
	env := NewEnv()
	var tm Timer
	if tm.Active() || tm.When() != 0 || tm.Cancel() {
		t.Fatal("the zero Timer must be inactive")
	}
	var fired []string
	env.ArmAt(&tm, 3*time.Second, func() { fired = append(fired, "first") })
	stale := tm
	env.ArmAt(&tm, 2*time.Second, func() { fired = append(fired, "second") })
	if !tm.Active() || tm.When() != 2*time.Second {
		t.Fatalf("after re-arm: active=%v when=%v, want true 2s", tm.Active(), tm.When())
	}
	if stale.Active() || stale.Cancel() {
		t.Fatal("the replaced arm's handle still controls a pending item")
	}
	if !tm.Active() {
		t.Fatal("cancelling the stale handle cancelled the re-arm")
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "second" || tm.Active() || tm.When() != 2*time.Second {
		t.Fatalf("fired %v, active=%v when=%v; want only the re-arm, at 2s", fired, tm.Active(), tm.When())
	}
	// Both items are back in the pool (the replaced one was dropped
	// from the queue head), and the next schedule reuses the replaced
	// one: neither old handle may reach the item's new owner.
	fired = nil
	fresh := env.Schedule(time.Second, func() { fired = append(fired, "fresh") })
	if stale.Cancel() || tm.Active() || tm.Cancel() || !fresh.Active() {
		t.Fatal("a stale handle controls a recycled item")
	}
	env.ArmAt(&tm, 0, func() { fired = append(fired, "past") }) // clamped to Now
	if tm.When() != 2*time.Second {
		t.Fatalf("past arm When = %v, want Now (2s)", tm.When())
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != "past" || fired[1] != "fresh" {
		t.Fatalf("fired %v, want [past fresh]", fired)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	env := NewEnv()
	env.Schedule(5*time.Second, func() {
		env.Schedule(-time.Second, func() {
			if env.Now() != 5*time.Second {
				t.Errorf("Now = %v", env.Now())
			}
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	env := NewEnv()
	var wake time.Duration
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(7 * time.Second)
		wake = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 7*time.Second {
		t.Fatalf("woke at %v", wake)
	}
}

func TestProcDoneEvent(t *testing.T) {
	env := NewEnv()
	p := env.Spawn("worker", func(p *Proc) { p.Sleep(time.Second) })
	var doneAt time.Duration = -1
	env.Spawn("watcher", func(w *Proc) {
		w.Wait(p.Done())
		doneAt = w.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != time.Second {
		t.Fatalf("done observed at %v", doneAt)
	}
}

func TestEventFireValueAndWaiters(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent()
	results := make([]any, 0, 3)
	for i := 0; i < 3; i++ {
		env.Spawn("waiter", func(p *Proc) {
			v, err := p.Wait(ev)
			if err != nil {
				t.Errorf("unexpected err: %v", err)
			}
			results = append(results, v)
		})
	}
	env.Schedule(2*time.Second, func() { ev.Fire(42) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %v", results)
	}
	for _, v := range results {
		if v != 42 {
			t.Fatalf("value = %v", v)
		}
	}
}

func TestEventFail(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent()
	boom := errors.New("boom")
	var got error
	env.Spawn("waiter", func(p *Proc) { _, got = p.Wait(ev) })
	env.Schedule(time.Second, func() { ev.Fail(boom) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, boom) {
		t.Fatalf("err = %v", got)
	}
}

func TestEventFireTwicePanics(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent()
	ev.Fire(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ev.Fire(2)
}

func TestWaitOnFiredEventReturnsImmediately(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent()
	ev.Fire("x")
	var at time.Duration = -1
	env.Spawn("w", func(p *Proc) {
		v, _ := p.Wait(ev)
		if v != "x" {
			t.Errorf("v = %v", v)
		}
		at = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Fatalf("waited until %v", at)
	}
}

func TestWaitTimeout(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent()
	var err1, err2 error
	env.Spawn("timesout", func(p *Proc) { _, err1 = p.WaitTimeout(ev, time.Second) })
	env.Spawn("succeeds", func(p *Proc) { _, err2 = p.WaitTimeout(ev, 10*time.Second) })
	env.Schedule(5*time.Second, func() { ev.Fire(nil) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(err1, ErrTimeout) {
		t.Fatalf("err1 = %v", err1)
	}
	if err2 != nil {
		t.Fatalf("err2 = %v", err2)
	}
}

func TestOnFireAfterFired(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent()
	ev.Fire(7)
	ran := false
	ev.OnFire(func(e *Event) { ran = e.Value() == 7 })
	if !ran {
		t.Fatal("callback should run immediately on fired event")
	}
}

func TestAnyOf(t *testing.T) {
	env := NewEnv()
	a, b := env.NewNamedEvent("a"), env.NewNamedEvent("b")
	any := AnyOf(env, a, b)
	var winner *Event
	env.Spawn("w", func(p *Proc) {
		v, _ := p.Wait(any)
		winner = v.(*Event)
	})
	env.Schedule(2*time.Second, func() { b.Fire("bee") })
	env.Schedule(3*time.Second, func() { a.Fire("ay") })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if winner != b || winner.Value() != "bee" {
		t.Fatalf("winner = %v", winner)
	}
}

func TestAllOf(t *testing.T) {
	env := NewEnv()
	a, b, c := env.NewEvent(), env.NewEvent(), env.NewEvent()
	all := AllOf(env, a, b, c)
	var doneAt time.Duration = -1
	env.Spawn("w", func(p *Proc) {
		_, err := p.Wait(all)
		if err != nil {
			t.Errorf("err = %v", err)
		}
		doneAt = p.Now()
	})
	env.Schedule(1*time.Second, func() { a.Fire(nil) })
	env.Schedule(3*time.Second, func() { c.Fire(nil) })
	env.Schedule(2*time.Second, func() { b.Fire(nil) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 3*time.Second {
		t.Fatalf("all fired at %v", doneAt)
	}
}

func TestAllOfPropagatesError(t *testing.T) {
	env := NewEnv()
	a, b := env.NewEvent(), env.NewEvent()
	all := AllOf(env, a, b)
	boom := errors.New("boom")
	var got error
	env.Spawn("w", func(p *Proc) { _, got = p.Wait(all) })
	env.Schedule(1*time.Second, func() { a.Fail(boom) })
	env.Schedule(2*time.Second, func() { b.Fire(nil) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, boom) {
		t.Fatalf("got = %v", got)
	}
}

func TestAllOfEmptyFiresImmediately(t *testing.T) {
	env := NewEnv()
	all := AllOf(env)
	if !all.Fired() {
		t.Fatal("empty AllOf should fire immediately")
	}
}

func TestChanUnbufferedRendezvous(t *testing.T) {
	env := NewEnv()
	c := NewChan[int](env, 0)
	var recvAt, sendDoneAt time.Duration
	var got int
	env.Spawn("sender", func(p *Proc) {
		p.Sleep(time.Second)
		c.Send(p, 99)
		sendDoneAt = p.Now()
	})
	env.Spawn("receiver", func(p *Proc) {
		p.Sleep(5 * time.Second)
		got, _ = c.Recv(p)
		recvAt = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 99 || recvAt != 5*time.Second || sendDoneAt != 5*time.Second {
		t.Fatalf("got=%d recvAt=%v sendDoneAt=%v", got, recvAt, sendDoneAt)
	}
}

func TestChanBufferedFIFO(t *testing.T) {
	env := NewEnv()
	c := NewChan[int](env, 3)
	var got []int
	env.Spawn("producer", func(p *Proc) {
		for i := 0; i < 6; i++ {
			c.Send(p, i)
		}
		c.Close()
	})
	env.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := c.Recv(p)
			if !ok {
				return
			}
			got = append(got, v)
			p.Sleep(time.Millisecond)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4 5]" {
		t.Fatalf("got = %v", got)
	}
}

func TestChanSendBlocksWhenFull(t *testing.T) {
	env := NewEnv()
	c := NewChan[int](env, 1)
	var sendDone time.Duration = -1
	env.Spawn("sender", func(p *Proc) {
		c.Send(p, 1) // fills buffer
		c.Send(p, 2) // blocks until receiver drains
		sendDone = p.Now()
	})
	env.Spawn("receiver", func(p *Proc) {
		p.Sleep(4 * time.Second)
		c.Recv(p)
	})
	if err := env.Run(); err == nil || !errors.Is(err, ErrDeadlock) {
		// value 2 is still in buffer with no receiver left: the sender
		// completed, so no deadlock is expected.
		if err != nil {
			t.Fatal(err)
		}
	}
	if sendDone != 4*time.Second {
		t.Fatalf("second send completed at %v", sendDone)
	}
}

func TestChanCloseWakesReceivers(t *testing.T) {
	env := NewEnv()
	c := NewChan[string](env, 0)
	var ok = true
	env.Spawn("receiver", func(p *Proc) { _, ok = c.Recv(p) })
	env.Schedule(time.Second, func() { c.Close() })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("recv on closed chan should report !ok")
	}
}

func TestChanRecvDrainsBufferAfterClose(t *testing.T) {
	env := NewEnv()
	c := NewChan[int](env, 2)
	c.TrySend(1)
	c.TrySend(2)
	c.Close()
	var got []int
	env.Spawn("r", func(p *Proc) {
		for {
			v, ok := c.Recv(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("got = %v", got)
	}
}

func TestChanRecvOrCancel(t *testing.T) {
	env := NewEnv()
	c := NewChan[int](env, 0)
	cancel := env.NewEvent()
	var cancelled bool
	env.Spawn("r", func(p *Proc) { _, _, cancelled = c.RecvOr(p, cancel) })
	env.Schedule(time.Second, func() { cancel.Fire(nil) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !cancelled {
		t.Fatal("expected cancellation")
	}
}

func TestChanRecvOrAlreadyCancelled(t *testing.T) {
	env := NewEnv()
	c := NewChan[int](env, 0)
	cancel := env.NewEvent()
	cancel.Fire(nil)
	var cancelled bool
	env.Spawn("r", func(p *Proc) { _, _, cancelled = c.RecvOr(p, cancel) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !cancelled {
		t.Fatal("expected immediate cancellation")
	}
}

func TestChanTryOps(t *testing.T) {
	env := NewEnv()
	c := NewChan[int](env, 1)
	if _, ok := c.TryRecv(); ok {
		t.Fatal("TryRecv on empty chan succeeded")
	}
	if !c.TrySend(5) {
		t.Fatal("TrySend into empty buffer failed")
	}
	if c.TrySend(6) {
		t.Fatal("TrySend into full buffer succeeded")
	}
	if v, ok := c.TryRecv(); !ok || v != 5 {
		t.Fatalf("TryRecv = %v, %v", v, ok)
	}
}

func TestDeadlockDetection(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent()
	env.Spawn("stuck", func(p *Proc) { p.Wait(ev) })
	err := env.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v", err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	env := NewEnv()
	env.Spawn("bomb", func(p *Proc) {
		p.Sleep(time.Second)
		panic("kaboom")
	})
	err := env.Run()
	if err == nil {
		t.Fatal("expected error from panicking proc")
	}
}

func TestEnvFailAborts(t *testing.T) {
	env := NewEnv()
	boom := errors.New("stop")
	ran := false
	env.Schedule(time.Second, func() { env.Fail(boom) })
	env.Schedule(2*time.Second, func() { ran = true })
	err := env.Run()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Fatal("event after failure ran")
	}
}

func TestSpawnFromProc(t *testing.T) {
	env := NewEnv()
	var childAt time.Duration = -1
	env.Spawn("parent", func(p *Proc) {
		p.Sleep(3 * time.Second)
		child := p.Env().Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childAt = c.Now()
		})
		p.Wait(child.Done())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 4*time.Second {
		t.Fatalf("childAt = %v", childAt)
	}
}

// TestDeterminism runs an identical randomized workload twice and
// requires bit-identical observable traces.
func TestDeterminism(t *testing.T) {
	trace := func(seed int64) []string {
		env := NewEnv()
		rng := rand.New(rand.NewSource(seed))
		var out []string
		c := NewChan[int](env, 2)
		// A buffered Chan used as a semaphore: at most three procs
		// hold a slot at once, and blocked senders enter in FIFO order.
		slots := NewChan[int](env, 3)
		for i := 0; i < 8; i++ {
			i := i
			d := time.Duration(rng.Intn(1000)) * time.Millisecond
			env.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				slots.Send(p, i)
				c.Send(p, i)
				p.Sleep(time.Duration(rng.Intn(100)) * time.Millisecond)
				v, _ := c.Recv(p)
				out = append(out, fmt.Sprintf("%d@%v got %d", i, p.Now(), v))
				slots.Recv(p)
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := trace(42), trace(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("nondeterministic:\n%v\n%v", a, b)
	}
}

// Property: for any set of delays, callbacks execute in nondecreasing
// time order and the clock ends at the max delay.
func TestQuickScheduleMonotonic(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		env := NewEnv()
		var times []time.Duration
		for _, r := range raw {
			d := time.Duration(r) * time.Millisecond
			env.Schedule(d, func() { times = append(times, env.Now()) })
		}
		if err := env.Run(); err != nil {
			return false
		}
		if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
			return false
		}
		var max time.Duration
		for _, r := range raw {
			if d := time.Duration(r) * time.Millisecond; d > max {
				max = d
			}
		}
		return env.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonProcsAreNotDeadlocks(t *testing.T) {
	env := NewEnv()
	c := NewChan[int](env, 0)
	worker := env.Spawn("daemon-worker", func(p *Proc) {
		for {
			if _, ok := c.Recv(p); !ok {
				return
			}
		}
	})
	worker.SetDaemon(true)
	env.Spawn("client", func(p *Proc) {
		c.Send(p, 1)
		c.Send(p, 2)
	})
	if err := env.Run(); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
	// A non-daemon in the same situation still trips detection.
	env2 := NewEnv()
	c2 := NewChan[int](env2, 0)
	env2.Spawn("worker", func(p *Proc) { c2.Recv(p) })
	if err := env2.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v", err)
	}
}
