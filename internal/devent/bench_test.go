package devent

import (
	"testing"
	"time"
)

// BenchmarkScheduleDrain measures raw event throughput.
func BenchmarkScheduleDrain(b *testing.B) {
	env := NewEnv()
	for i := 0; i < b.N; i++ {
		env.Schedule(time.Duration(i), func() {})
	}
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSleepLoop measures proc context-switch cost.
func BenchmarkProcSleepLoop(b *testing.B) {
	env := NewEnv()
	env.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnExit measures a short-lived proc's whole life — spawn,
// first handoff, exit, Done — as the per-task body and launch procs
// of the FaaS layer pay it, awaited by a long-lived driver.
func BenchmarkSpawnExit(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	body := func(*Proc) {}
	b.ReportAllocs()
	env.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(env.Spawn("child", body).Done())
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChanPingPong measures rendezvous cost between two procs.
func BenchmarkChanPingPong(b *testing.B) {
	env := NewEnv()
	ping := NewChan[int](env, 0)
	pong := NewChan[int](env, 0)
	env.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Send(p, i)
			pong.Recv(p)
		}
	})
	env.Spawn("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Recv(p)
			pong.Send(p, i)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerCancelRetention measures the schedule+cancel churn of
// a long-lived env (the open-loop pattern: per-kernel finish timers
// rescheduled on every share change) and asserts the heap stays
// bounded instead of retaining every cancelled item until its
// far-future deadline.
func BenchmarkTimerCancelRetention(b *testing.B) {
	env := NewEnv()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm := env.Schedule(time.Duration(i+1)*time.Hour, func() {})
		tm.Cancel()
		if len(env.queue) > 2*compactThreshold {
			b.Fatalf("heap grew to %d cancelled items at i=%d", len(env.queue), i)
		}
	}
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventFanout measures waking many waiters at once.
func BenchmarkEventFanout(b *testing.B) {
	const waiters = 64
	for i := 0; i < b.N; i++ {
		env := NewEnv()
		ev := env.NewEvent()
		for w := 0; w < waiters; w++ {
			env.Spawn("w", func(p *Proc) { p.Wait(ev) })
		}
		env.Schedule(time.Second, func() { ev.Fire(nil) })
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventWaitSteady measures the steady-state future pattern —
// one proc repeatedly awaiting a freshly fired event on a long-lived
// env — where the waiter pool and fanout-batch pool are warm. Target:
// 3 allocs/op (the Event, the Schedule closure, and the Timer handle);
// the eventWaiter must come from the pool.
func BenchmarkEventWaitSteady(b *testing.B) {
	env := NewEnv()
	b.ReportAllocs()
	env.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ev := env.NewEvent()
			env.Schedule(time.Microsecond, func() { ev.Fire(nil) })
			p.Wait(ev)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventFanoutSteady is EventFanout on a long-lived env: the
// same 64 procs repeatedly block on a fresh event, so per-iteration
// cost is the fanout itself (pooled waiters, one pooled proc batch,
// one scheduled callback) without proc-spawn churn.
func BenchmarkEventFanoutSteady(b *testing.B) {
	const waiters = 64
	env := NewEnv()
	b.ReportAllocs()
	ev := env.NewEvent()
	gate := NewChan[int](env, waiters)
	for w := 0; w < waiters; w++ {
		env.Spawn("w", func(p *Proc) {
			for {
				cur := ev
				if _, err := p.Wait(cur); err != nil {
					return
				}
				gate.Send(p, 1)
			}
		})
	}
	env.Spawn("driver", func(p *Proc) {
		p.Sleep(time.Millisecond) // let every waiter park on round 0
		for i := 0; i < b.N; i++ {
			cur := ev
			ev = env.NewEvent()
			cur.Fire(nil)
			for n := 0; n < waiters; n++ {
				gate.Recv(p)
			}
			p.Sleep(time.Millisecond) // waiters re-park on the new event
		}
		ev.Fail(ErrClosed)
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
