package htex

import (
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/faas/provider"
	"repro/internal/gpuctl"
)

// slurmRig builds a pool of n CPU-only nodes behind a SlurmProvider
// with the given grant delay.
func slurmRig(t *testing.T, n int, delay time.Duration) (*devent.Env, *provider.SlurmProvider) {
	t.Helper()
	env := devent.NewEnv()
	nodes := make([]*gpuctl.Node, n)
	for i := range nodes {
		nodes[i] = gpuctl.NewNode(env)
	}
	return env, provider.NewSlurm(env, delay, nodes...)
}

// ScaleOut adds blocks (and their workers) to a running executor, and
// the added capacity picks up queued work.
func TestScaleOutAddsCapacity(t *testing.T) {
	env, slurm := slurmRig(t, 2, 0)
	ex, err := New(env, Config{Label: "cpu", MaxWorkers: 2, Provider: slurm, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(env, faas.Config{}, ex)
	d.Register(faas.App{Name: "sleep", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
		inv.Compute(time.Second)
		return nil, nil
	}})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	var makespan time.Duration
	env.Spawn("main", func(p *devent.Proc) {
		p.Sleep(time.Millisecond) // let the initial block provision
		if got := ex.Blocks(); got != 1 {
			t.Errorf("blocks = %d before scale-out", got)
		}
		if err := ex.ScaleOut(p, 1); err != nil {
			t.Error(err)
			return
		}
		if got := ex.Blocks(); got != 2 {
			t.Errorf("blocks = %d after scale-out", got)
		}
		if got := ex.Workers(); got != 4 {
			t.Errorf("workers = %d after scale-out", got)
		}
		start := p.Now()
		evs := make([]*devent.Event, 8)
		for i := range evs {
			evs[i] = d.Submit("sleep").Event()
		}
		for _, ev := range evs {
			if _, err := p.Wait(ev); err != nil {
				t.Error(err)
			}
		}
		makespan = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// 8 × 1 s tasks on 4 workers ⇒ 2 s; on the original 2 it would be 4 s.
	if makespan != 2*time.Second {
		t.Fatalf("makespan = %v", makespan)
	}
}

// ScaleIn drains in-flight work, retires the newest block cleanly (no
// crash accounting), and returns its node to the provider so a later
// ScaleOut can re-grant it.
func TestScaleInGracefulAndReprovision(t *testing.T) {
	env, slurm := slurmRig(t, 2, 0)
	ex, err := New(env, Config{Label: "cpu", MaxWorkers: 1, Provider: slurm, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(env, faas.Config{}, ex)
	d.Register(faas.App{Name: "sleep", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
		inv.Compute(time.Second)
		return nil, nil
	}})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	env.Spawn("main", func(p *devent.Proc) {
		p.Sleep(time.Millisecond)
		// Occupy both workers so scale-in has in-flight work to drain.
		futs := []*faas.Future{d.Submit("sleep"), d.Submit("sleep")}
		p.Sleep(100 * time.Millisecond)
		t0 := p.Now()
		n, err := ex.ScaleIn(p, 1)
		if err != nil || n != 1 {
			t.Errorf("ScaleIn = %d, %v", n, err)
			return
		}
		// The retired worker finished its 1 s task first.
		if waited := p.Now() - t0; waited != 900*time.Millisecond {
			t.Errorf("scale-in drained for %v", waited)
		}
		for _, f := range futs {
			if _, err := f.Result(p); err != nil {
				t.Errorf("in-flight task failed across scale-in: %v", err)
			}
		}
		if got := ex.Blocks(); got != 1 {
			t.Errorf("blocks = %d after scale-in", got)
		}
		if got := slurm.Granted(); got != 1 {
			t.Errorf("provider outstanding = %d after scale-in", got)
		}
		// The released node is immediately re-grantable.
		if err := ex.ScaleOut(p, 1); err != nil {
			t.Errorf("scale-out after scale-in: %v", err)
		}
		if got := ex.Blocks(); got != 2 {
			t.Errorf("blocks = %d after re-provision", got)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// Scaling to zero keeps submissions queued — they complete after the
// next ScaleOut instead of failing with ErrNoWorkers.
func TestScaleToZeroQueuesUntilScaleOut(t *testing.T) {
	env, slurm := slurmRig(t, 1, 0)
	ex, err := New(env, Config{Label: "cpu", MaxWorkers: 1, Provider: slurm, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(env, faas.Config{}, ex)
	d.Register(faas.App{Name: "sleep", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
		inv.Compute(time.Second)
		return nil, nil
	}})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	env.Spawn("main", func(p *devent.Proc) {
		p.Sleep(time.Millisecond)
		if n, err := ex.ScaleIn(p, 1); err != nil || n != 1 {
			t.Errorf("ScaleIn = %d, %v", n, err)
			return
		}
		if got := ex.Workers(); got != 0 {
			t.Errorf("workers = %d at zero", got)
		}
		fut := d.Submit("sleep")
		p.Sleep(10 * time.Second) // idle at zero; the task must still be queued
		if fut.Event().Fired() {
			t.Error("task resolved while scaled to zero")
		}
		if err := ex.ScaleOut(p, 1); err != nil {
			t.Error(err)
			return
		}
		if _, err := fut.Result(p); err != nil {
			t.Errorf("queued task failed after scale-out: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// A scale-out that over-subscribes the provider pool fails with the
// provider's error and leaves the running pool untouched.
func TestScaleOutPoolExhausted(t *testing.T) {
	env, slurm := slurmRig(t, 1, 0)
	ex, err := New(env, Config{Label: "cpu", MaxWorkers: 1, Provider: slurm, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(env, faas.Config{}, ex)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	env.Spawn("main", func(p *devent.Proc) {
		p.Sleep(time.Millisecond)
		if err := ex.ScaleOut(p, 1); err == nil {
			t.Error("scale-out beyond the pool succeeded")
		}
		if got := ex.Blocks(); got != 1 {
			t.Errorf("blocks = %d after failed scale-out", got)
		}
		if got := ex.Workers(); got != 1 {
			t.Errorf("workers = %d after failed scale-out", got)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// A worker crash inside a block that has since been retired must not
// respawn: the node is back with the provider.
func TestRetiredBlockDoesNotRespawn(t *testing.T) {
	env, slurm := slurmRig(t, 2, 0)
	ex, err := New(env, Config{
		Label:      "cpu",
		MaxWorkers: 1,
		Provider:   slurm,
		Blocks:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(env, faas.Config{}, ex)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	env.Spawn("main", func(p *devent.Proc) {
		p.Sleep(time.Millisecond)
		// Crash the newest block's worker, then retire that block while
		// its restart timer is still pending.
		if !ex.KillWorker("cpu/block1/worker0") {
			t.Error("kill failed")
			return
		}
		if n, err := ex.ScaleIn(p, 1); err != nil || n != 1 {
			t.Errorf("ScaleIn = %d, %v", n, err)
			return
		}
		p.Sleep(5 * time.Second) // past the restart backoff
		if got := ex.Workers(); got != 1 {
			t.Errorf("workers = %d; retired block respawned", got)
		}
		if got := ex.Blocks(); got != 1 {
			t.Errorf("blocks = %d", got)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
