package devent

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
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
// re-arm replaces the pending item, Active and the firing time follow
// the latest arm, and a stale copy of the handle cannot cancel
// anything once its item is replaced or recycled.
func TestArmAtReArmsInPlace(t *testing.T) {
	env := NewEnv()
	var nilT *Timer
	var tm Timer
	if nilT.Active() || nilT.Cancel() || tm.Active() || tm.Cancel() {
		t.Fatal("the nil and zero Timers must be inactive")
	}
	var fired []string
	var at []time.Duration
	arm := func(when time.Duration, name string) {
		env.ArmAt(&tm, when, func() {
			fired = append(fired, name)
			at = append(at, env.Now())
		})
	}
	arm(3*time.Second, "first")
	stale := tm
	arm(2*time.Second, "second")
	if !tm.Active() {
		t.Fatal("after re-arm: timer inactive")
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
	if len(fired) != 1 || fired[0] != "second" || at[0] != 2*time.Second || tm.Active() {
		t.Fatalf("fired %v at %v, active=%v; want only the re-arm, at 2s", fired, at, tm.Active())
	}
	// Both items are back in the pool (the replaced one was dropped
	// from the queue head), and the next schedule reuses the replaced
	// one: neither old handle may reach the item's new owner.
	fired, at = nil, nil
	fresh := env.Schedule(time.Second, func() { fired = append(fired, "fresh") })
	if stale.Cancel() || tm.Active() || tm.Cancel() || !fresh.Active() {
		t.Fatal("a stale handle controls a recycled item")
	}
	arm(0, "past") // clamped to Now
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != "past" || fired[1] != "fresh" || at[0] != 2*time.Second {
		t.Fatalf("fired %v (past at %v), want [past fresh] with past at Now (2s)", fired, at)
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

// The queue delivers in Put order, both to a waiting receiver and from
// its buffer.
func TestChanBufferedFIFO(t *testing.T) {
	env := NewEnv()
	c := NewQueue[int](env)
	var got []int
	env.Spawn("producer", func(p *Proc) {
		for i := 0; i < 6; i++ {
			c.Put(i)
			if i == 2 {
				p.Sleep(10 * time.Millisecond) // the consumer catches up and waits
			}
		}
	})
	env.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 6; i++ {
			v := c.Get(p)
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

// A Step receiver on an empty queue receives ok=false when Withdraw
// cancels its receive, at the withdrawal instant.
func TestChanRecvOrCancel(t *testing.T) {
	env := NewEnv()
	c := NewQueue[int](env)
	r := &recvStep{env: env}
	c.Then(r)
	env.Schedule(time.Second, func() { c.Withdraw(r) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(r.log, " "); got != "0,false@1s" {
		t.Fatalf("received %q, want a withdrawal at 1s", got)
	}
}

func TestChanTryOps(t *testing.T) {
	env := NewEnv()
	c := NewQueue[int](env)
	if _, ok := c.TryGet(); ok {
		t.Fatal("TryGet on an empty queue succeeded")
	}
	c.Put(5)
	c.Put(6)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if v, ok := c.TryGet(); !ok || v != 5 {
		t.Fatalf("TryGet = %v, %v", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
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
		done := env.NewEvent()
		env.Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childAt = c.Now()
			done.Fire(nil)
		})
		p.Wait(done)
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
		c := NewQueue[int](env)
		// A queue of tokens used as a semaphore: at most three procs
		// hold a token at once, and waiting procs take them in FIFO
		// order.
		tokens := NewQueue[int](env)
		for i := 0; i < 3; i++ {
			tokens.Put(i)
		}
		for i := 0; i < 8; i++ {
			i := i
			d := time.Duration(rng.Intn(1000)) * time.Millisecond
			env.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				tok := tokens.Get(p)
				c.Put(i)
				p.Sleep(time.Duration(rng.Intn(100)) * time.Millisecond)
				v := c.Get(p)
				out = append(out, fmt.Sprintf("%d@%v got %d", i, p.Now(), v))
				tokens.Put(tok)
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
	c := NewQueue[int](env)
	worker := env.Spawn("daemon-worker", func(p *Proc) {
		for {
			c.Get(p)
		}
	})
	worker.SetDaemon(true)
	env.Spawn("client", func(p *Proc) {
		c.Put(1)
		p.Sleep(time.Second)
		c.Put(2)
	})
	if err := env.Run(); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
	// A non-daemon in the same situation still trips detection.
	env2 := NewEnv()
	c2 := NewQueue[int](env2)
	env2.Spawn("worker", func(p *Proc) { c2.Get(p) })
	if err := env2.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v", err)
	}
}
