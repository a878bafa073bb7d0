package htex

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/obs"
)

// exitLog records, as "name@time" lines, the order in which workers
// end their lifecycle spans and the order in which they fire exited.
type exitLog struct {
	spans, exits []string
	watched      map[*worker]bool
}

// watchSpans logs every worker lifecycle span as it ends.
func (l *exitLog) watchSpans(c *obs.Collector) {
	c.OnSpanEnd(func(s obs.Span) {
		if s.Cat == "htex" && s.Name == "worker" {
			l.spans = append(l.spans, fmt.Sprintf("%s@%v", s.Track, s.End))
		}
	})
}

// watchExits logs the exited event of each worker in ws not yet
// watched when it fires. Call it before any of them can exit.
func (l *exitLog) watchExits(env *devent.Env, ws []*worker) {
	if l.watched == nil {
		l.watched = make(map[*worker]bool)
	}
	for _, w := range ws {
		if l.watched[w] {
			continue
		}
		l.watched[w] = true
		name := w.name
		w.exited.OnFire(func(*devent.Event) {
			l.exits = append(l.exits, fmt.Sprintf("%s@%v", name, env.Now()))
		})
	}
}

func (l *exitLog) check(t *testing.T, want []string) {
	t.Helper()
	if !slices.Equal(l.spans, want) {
		t.Errorf("lifecycle spans ended in order\n%q\nwant\n%q", l.spans, want)
	}
	if !slices.Equal(l.exits, want) {
		t.Errorf("workers exited in order\n%q\nwant\n%q", l.exits, want)
	}
}

// durApp computes for its first argument's duration.
var durApp = faas.App{Name: "dur", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
	inv.Compute(inv.Arg(0).(time.Duration))
	return nil, nil
}}

// Shutdown stops idle workers in pool order, which here differs from
// the order they wait on the queue in; a respawned worker still in
// WorkerInit exits when its init ends, and a worker running an app
// exits when the app returns.
func TestShutdownStopOrder(t *testing.T) {
	r := newRig(t, 0)
	ex, err := New(r.env, Config{Label: "cpu", MaxWorkers: 5, WorkerInit: time.Second, Provider: r.local()})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Register(durApp)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	var log exitLog
	log.watchSpans(d.Collector())
	r.env.Spawn("main", func(p *devent.Proc) {
		p.Sleep(time.Second)
		log.watchExits(r.env, ex.spawned)
		// worker0 runs a short app and queues again behind the others.
		d.Submit("dur", 100*time.Millisecond)
		p.Sleep(200 * time.Millisecond)
		long := d.Submit("dur", 10*time.Second) // worker1
		p.Sleep(100 * time.Millisecond)
		ex.KillWorker("cpu/block0/worker2") // respawns at 1.8s, in init until 2.8s
		p.Sleep(700 * time.Millisecond)
		log.watchExits(r.env, ex.spawned)
		ex.Shutdown()
		if _, err := long.Result(p); err != nil {
			t.Errorf("in-flight app across shutdown: %v", err)
		}
	})
	r.run(t)
	log.check(t, []string{
		"cpu/block0/worker2@1.3s",
		"cpu/block0/worker0@2s",
		"cpu/block0/worker3@2s",
		"cpu/block0/worker4@2s",
		"cpu/block0/worker2@2.8s",
		"cpu/block0/worker1@11.2s",
	})
}

// A KillWorker and a ScaleIn at the same instant: a worker killed
// before the retire crashes, one retired and then killed crashes too,
// a killed worker outside the retired block crashes and respawns, and
// a retired worker running an app leaves when the app returns.
func TestKillAndScaleInStopOrder(t *testing.T) {
	env, slurm := slurmRig(t, 2, 0)
	ex, err := New(env, Config{Label: "cpu", MaxWorkers: 3, Provider: slurm, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(env, faas.Config{}, ex)
	d.Register(durApp)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	var log exitLog
	log.watchSpans(d.Collector())
	env.Spawn("main", func(p *devent.Proc) {
		p.Sleep(time.Millisecond)
		log.watchExits(env, ex.spawned)
		// Six workers pick one app each, in spawn order: the last,
		// block1/worker2, gets the long one.
		for i := 0; i < 5; i++ {
			d.Submit("dur", 10*time.Millisecond)
		}
		long := d.Submit("dur", 5*time.Second)
		p.Sleep(time.Second)
		ex.KillWorker("cpu/block1/worker0")
		env.Spawn("killer", func(*devent.Proc) {
			ex.KillWorker("cpu/block1/worker1")
			ex.KillWorker("cpu/block0/worker1")
		})
		if n, err := ex.ScaleIn(p, 1); n != 1 || err != nil {
			t.Errorf("ScaleIn = %d, %v", n, err)
		}
		if _, err := long.Result(p); err != nil {
			t.Errorf("retired worker's app: %v", err)
		}
		if got := ex.Workers(); got != 3 {
			t.Errorf("workers after respawn = %d, want 3", got)
		}
		log.watchExits(env, ex.spawned)
		ex.Shutdown()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	log.check(t, []string{
		"cpu/block1/worker0@1.001s",
		"cpu/block1/worker1@1.001s",
		"cpu/block0/worker1@1.001s",
		"cpu/block1/worker2@5.001s",
		"cpu/block0/worker0@5.001s",
		"cpu/block0/worker2@5.001s",
		"cpu/block0/worker1@5.001s",
	})
}
