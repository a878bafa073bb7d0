package htex

import (
	"errors"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/faas/provider"
	"repro/internal/gpuctl"
	"repro/internal/simgpu"
)

// Multiple blocks from a Slurm pool: workers appear on every granted
// node.
func TestMultiBlockSlurm(t *testing.T) {
	env := devent.NewEnv()
	var nodes []*gpuctl.Node
	for i := 0; i < 2; i++ {
		d, err := simgpu.NewDevice(env, "n"+string(rune('0'+i))+"-gpu", simgpu.A100SXM480GB())
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, gpuctl.NewNode(env, d))
	}
	slurm := provider.NewSlurm(env, 10*time.Second, nodes...)
	ex, err := New(env, Config{
		Label:                 "gpu",
		AvailableAccelerators: []string{"0"},
		Provider:              slurm,
		Blocks:                2,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(env, faas.Config{}, ex)
	var workers []string
	d.Register(faas.App{Name: "whoami", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		if _, err := inv.GPU(); err != nil {
			return nil, err
		}
		workers = append(workers, inv.WorkerName())
		inv.Compute(time.Second)
		return nil, nil
	}})
	d.Start()
	env.Spawn("main", func(p *devent.Proc) {
		f1, f2 := d.Submit("whoami"), d.Submit("whoami")
		p.Wait(devent.AllOf(env, f1.Event(), f2.Event()))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(workers) != 2 || workers[0] == workers[1] {
		t.Fatalf("workers = %v", workers)
	}
	if ex.Workers() != 2 {
		t.Fatalf("worker count = %d", ex.Workers())
	}
}

// Tasks queued before workers exist run once provisioning completes.
func TestQueueDrainsAfterProvisioning(t *testing.T) {
	env := devent.NewEnv()
	node := gpuctl.NewNode(env)
	slurm := provider.NewSlurm(env, time.Minute, node)
	ex, _ := New(env, Config{Label: "cpu", MaxWorkers: 1, Provider: slurm})
	d := faas.NewDFK(env, faas.Config{}, ex)
	d.Register(faas.App{Name: "fn", Executor: "cpu", Fn: func(*faas.Invocation) (any, error) { return "ok", nil }})
	d.Start()
	var at time.Duration
	env.Spawn("main", func(p *devent.Proc) {
		fut := d.Submit("fn")
		if v, err := fut.Result(p); err != nil || v != "ok" {
			t.Errorf("v=%v err=%v", v, err)
		}
		at = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at != time.Minute {
		t.Fatalf("completed at %v", at)
	}
}

// A GPU worker whose accelerator disappears (MIG instance destroyed
// under it) surfaces the error to the task rather than wedging.
func TestWorkerSurvivesMissingAccelerator(t *testing.T) {
	env := devent.NewEnv()
	node := gpuctl.NewNode(env) // no devices at all
	ex, _ := New(env, Config{
		Label:                 "gpu",
		AvailableAccelerators: []string{"0"}, // dangling reference
		Provider:              provider.NewLocal(env, node),
	})
	d := faas.NewDFK(env, faas.Config{}, ex)
	d.Register(faas.App{Name: "gpufn", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		_, err := inv.GPU()
		return nil, err
	}})
	d.Start()
	var got error
	env.Spawn("main", func(p *devent.Proc) {
		_, got = d.Submit("gpufn").Result(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, gpuctl.ErrNoDevice) {
		t.Fatalf("got = %v", got)
	}
}

// Submissions after Shutdown fail fast.
func TestSubmitAfterShutdown(t *testing.T) {
	env := devent.NewEnv()
	node := gpuctl.NewNode(env)
	ex, _ := New(env, Config{Label: "cpu", MaxWorkers: 1, Provider: provider.NewLocal(env, node)})
	d := faas.NewDFK(env, faas.Config{}, ex)
	d.Register(faas.App{Name: "fn", Executor: "cpu", Fn: func(*faas.Invocation) (any, error) { return nil, nil }})
	d.Start()
	var got error
	env.Spawn("main", func(p *devent.Proc) {
		p.Sleep(time.Second)
		ex.Shutdown()
		_, got = d.Submit("fn").Result(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, faas.ErrShutdown) {
		t.Fatalf("got = %v", got)
	}
}

// Restart with invalid config reports the error and leaves the old
// executor stopped rather than half-configured.
func TestRestartValidation(t *testing.T) {
	env := devent.NewEnv()
	dev, _ := simgpu.NewDevice(env, "gpu0", simgpu.A100SXM480GB())
	node := gpuctl.NewNode(env, dev)
	ex, _ := New(env, Config{
		Label:                 "gpu",
		AvailableAccelerators: []string{"0"},
		Provider:              provider.NewLocal(env, node),
	})
	d := faas.NewDFK(env, faas.Config{}, ex)
	d.Start()
	env.Spawn("main", func(p *devent.Proc) {
		if err := ex.Restart(p, []string{"0", "0"}, []int{50}); err == nil {
			t.Error("mismatched restart accepted")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// Config.Bindings assembles Listing-2 bindings faithfully.
func TestConfigBindings(t *testing.T) {
	cfg := Config{
		AvailableAccelerators: []string{"1", "2", "4"},
		GPUPercentages:        []int{50, 25, 30},
	}
	b := cfg.Bindings()
	if len(b) != 3 {
		t.Fatalf("bindings = %v", b)
	}
	if b[0].Accelerator != "1" || b[0].GPUPercent != 50 {
		t.Fatalf("b0 = %+v", b[0])
	}
	if b[2].Accelerator != "4" || b[2].GPUPercent != 30 {
		t.Fatalf("b2 = %+v", b[2])
	}
	env := b[1].Environ()
	if env[gpuctl.EnvVisibleDevices] != "2" || env[gpuctl.EnvMPSThreadPct] != "25" {
		t.Fatalf("env = %v", env)
	}
}
