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

// rig is a one-node test fixture: env, devices, node, local provider.
type rig struct {
	env  *devent.Env
	node *gpuctl.Node
	devs []*simgpu.Device
}

func newRig(t *testing.T, nDev int) *rig {
	t.Helper()
	env := devent.NewEnv()
	devs := make([]*simgpu.Device, nDev)
	for i := range devs {
		d, err := simgpu.NewDevice(env, "gpu"+string(rune('0'+i)), simgpu.A100SXM480GB())
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = d
	}
	return &rig{env: env, node: gpuctl.NewNode(env, devs...), devs: devs}
}

func (r *rig) local() provider.Provider { return provider.NewLocal(r.env, r.node) }

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func sleepApp(label string, d time.Duration) faas.App {
	return faas.App{Name: "sleep", Executor: label, Fn: func(inv *faas.Invocation) (any, error) {
		inv.Compute(d)
		return inv.WorkerName(), nil
	}}
}

func TestCPUWorkersRunConcurrently(t *testing.T) {
	r := newRig(t, 0)
	ex, err := New(r.env, Config{Label: "cpu", MaxWorkers: 4, Provider: r.local()})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Register(sleepApp("cpu", time.Second))
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	var makespan time.Duration
	r.env.Spawn("main", func(p *devent.Proc) {
		evs := make([]*devent.Event, 8)
		for i := range evs {
			evs[i] = d.Submit("sleep").Event()
		}
		for _, ev := range evs {
			p.Wait(ev)
		}
		makespan = p.Now()
	})
	r.run(t)
	// 8 × 1 s tasks on 4 workers ⇒ 2 s.
	if makespan != 2*time.Second {
		t.Fatalf("makespan = %v", makespan)
	}
}

func TestWorkerInitColdStart(t *testing.T) {
	r := newRig(t, 0)
	ex, _ := New(r.env, Config{Label: "cpu", MaxWorkers: 1, WorkerInit: 3 * time.Second, Provider: r.local()})
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Register(sleepApp("cpu", time.Second))
	d.Start()
	var start time.Duration
	r.env.Spawn("main", func(p *devent.Proc) {
		fut := d.Submit("sleep")
		fut.Result(p)
		start = fut.Task().StartTime
	})
	r.run(t)
	if start != 3*time.Second {
		t.Fatalf("first task started at %v", start)
	}
}

func TestAcceleratorPinningWithPercentages(t *testing.T) {
	r := newRig(t, 1)
	// Listing 2 style: the same GPU listed twice with 50/25 caps.
	ex, err := New(r.env, Config{
		Label:                 "gpu",
		AvailableAccelerators: []string{"0", "0"},
		GPUPercentages:        []int{50, 25},
		Provider:              r.local(),
	})
	if err != nil {
		t.Fatal(err)
	}
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	var pcts []int
	d.Register(faas.App{Name: "probe", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		ctx, err := inv.GPU()
		if err != nil {
			return nil, err
		}
		pcts = append(pcts, ctx.SMPercent())
		inv.Compute(time.Second) // keep the worker busy so both run
		return nil, nil
	}})
	d.Start()
	r.env.Spawn("main", func(p *devent.Proc) {
		if _, err := r.node.StartMPS(p, 0); err != nil {
			t.Error(err)
			return
		}
		f1, f2 := d.Submit("probe"), d.Submit("probe")
		p.Wait(f1.Event())
		p.Wait(f2.Event())
	})
	r.run(t)
	if len(pcts) != 2 {
		t.Fatalf("pcts = %v", pcts)
	}
	got := map[int]bool{pcts[0]: true, pcts[1]: true}
	if !got[50] || !got[25] {
		t.Fatalf("pcts = %v", pcts)
	}
	if ex.Workers() != 2 {
		t.Fatalf("workers = %d", ex.Workers())
	}
}

func TestWarmWorkerStateAndContextReuse(t *testing.T) {
	r := newRig(t, 1)
	ex, _ := New(r.env, Config{
		Label:                 "gpu",
		AvailableAccelerators: []string{"0"},
		Provider:              r.local(),
	})
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	var created []time.Duration
	d.Register(faas.App{Name: "warm", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		ctx, err := inv.GPU()
		if err != nil {
			return nil, err
		}
		created = append(created, ctx.CreatedAt())
		n, _ := inv.State()["count"].(int)
		inv.State()["count"] = n + 1
		return n + 1, nil
	}})
	d.Start()
	r.env.Spawn("main", func(p *devent.Proc) {
		if v, err := d.Submit("warm").Result(p); err != nil || v != 1 {
			t.Errorf("first: %v %v", v, err)
		}
		if v, err := d.Submit("warm").Result(p); err != nil || v != 2 {
			t.Errorf("second: %v %v", v, err)
		}
	})
	r.run(t)
	if len(created) != 2 || created[0] != created[1] {
		t.Fatalf("context recreated: %v", created)
	}
}

func TestShutdownFailsQueuedAndDestroysContexts(t *testing.T) {
	r := newRig(t, 1)
	ex, _ := New(r.env, Config{
		Label:                 "gpu",
		AvailableAccelerators: []string{"0"},
		Provider:              r.local(),
	})
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Register(faas.App{Name: "gpuwork", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		if _, err := inv.GPU(); err != nil {
			return nil, err
		}
		inv.Compute(10 * time.Second)
		return nil, nil
	}})
	d.Start()
	var queuedErr error
	r.env.Spawn("main", func(p *devent.Proc) {
		running := d.Submit("gpuwork")
		queued := d.Submit("gpuwork") // sits behind the single worker
		p.Sleep(time.Second)
		ex.ShutdownAndWait(p)
		_, queuedErr = queued.Result(p)
		running.Result(p)
		if got := r.devs[0].Contexts(); got != 0 {
			t.Errorf("contexts after shutdown = %d", got)
		}
	})
	r.run(t)
	if !errors.Is(queuedErr, faas.ErrShutdown) {
		t.Fatalf("queued err = %v", queuedErr)
	}
}

func TestRestartAppliesNewPartitioning(t *testing.T) {
	r := newRig(t, 1)
	ex, _ := New(r.env, Config{
		Label:                 "gpu",
		AvailableAccelerators: []string{"0", "0"},
		GPUPercentages:        []int{50, 50},
		WorkerInit:            time.Second,
		Provider:              r.local(),
	})
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	var pct int
	d.Register(faas.App{Name: "probe", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		ctx, err := inv.GPU()
		if err != nil {
			return nil, err
		}
		pct = ctx.SMPercent()
		return nil, nil
	}})
	d.Start()
	r.env.Spawn("main", func(p *devent.Proc) {
		r.node.StartMPS(p, 0)
		d.Submit("probe").Result(p)
		if pct != 50 {
			t.Errorf("initial pct = %d", pct)
		}
		before := p.Now()
		if err := ex.Restart(p, []string{"0"}, []int{90}); err != nil {
			t.Error(err)
			return
		}
		d.Submit("probe").Result(p)
		if pct != 90 {
			t.Errorf("pct after restart = %d", pct)
		}
		// The restart repaid worker init (≥1 s passed).
		if p.Now()-before < time.Second {
			t.Errorf("restart too fast: %v", p.Now()-before)
		}
	})
	r.run(t)
}

func TestMIGUUIDBinding(t *testing.T) {
	r := newRig(t, 1)
	env := r.env
	var uuids []string
	env.Spawn("setup", func(p *devent.Proc) {
		dev := r.devs[0]
		if err := dev.EnableMIG(p); err != nil {
			t.Error(err)
			return
		}
		ins, err := dev.ConfigureMIG(p, []string{"3g.40gb", "3g.40gb"})
		if err != nil {
			t.Error(err)
			return
		}
		in1, in2 := ins[0], ins[1]
		// Listing 3: accelerators are MIG UUIDs.
		ex, err := New(env, Config{
			Label:                 "gpu",
			AvailableAccelerators: []string{in1.UUID(), in2.UUID()},
			Provider:              r.local(),
		})
		if err != nil {
			t.Error(err)
			return
		}
		d := faas.NewDFK(env, faas.Config{}, ex)
		d.Register(faas.App{Name: "where", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
			if _, err := inv.GPU(); err != nil {
				return nil, err
			}
			uuids = append(uuids, inv.Env()[gpuctl.EnvVisibleDevices])
			inv.Compute(time.Second)
			return nil, nil
		}})
		d.Start()
		f1, f2 := d.Submit("where"), d.Submit("where")
		p.Wait(f1.Event())
		p.Wait(f2.Event())
		if in1.Contexts()+in2.Contexts() != 2 {
			t.Errorf("instance contexts = %d + %d", in1.Contexts(), in2.Contexts())
		}
	})
	r.run(t)
	if len(uuids) != 2 || uuids[0] == uuids[1] {
		t.Fatalf("uuids = %v", uuids)
	}
}

func TestSlurmProviderQueueDelay(t *testing.T) {
	r := newRig(t, 0)
	slurm := provider.NewSlurm(r.env, 30*time.Second, r.node)
	ex, _ := New(r.env, Config{Label: "cpu", MaxWorkers: 2, Provider: slurm})
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Register(sleepApp("cpu", time.Second))
	d.Start()
	var start time.Duration
	r.env.Spawn("main", func(p *devent.Proc) {
		fut := d.Submit("sleep")
		fut.Result(p)
		start = fut.Task().StartTime
	})
	r.run(t)
	if start != 30*time.Second {
		t.Fatalf("start = %v", start)
	}
	if slurm.Granted() != 1 {
		t.Fatalf("granted = %d", slurm.Granted())
	}
}

func TestConfigValidation(t *testing.T) {
	r := newRig(t, 0)
	if _, err := New(r.env, Config{Label: "x", Provider: r.local()}); err == nil {
		t.Error("no workers accepted")
	}
	if _, err := New(r.env, Config{Label: "x", MaxWorkers: 1}); err == nil {
		t.Error("missing provider accepted")
	}
	if _, err := New(r.env, Config{
		Label: "x", Provider: r.local(),
		AvailableAccelerators: []string{"0", "0"},
		GPUPercentages:        []int{50},
	}); err == nil {
		t.Error("mismatched percentages accepted")
	}
	if _, err := New(r.env, Config{
		Label: "x", Provider: r.local(),
		AvailableAccelerators: []string{"0"},
		GPUPercentages:        []int{150},
	}); err == nil {
		t.Error("out-of-range percentage accepted")
	}
	if _, err := New(r.env, Config{Label: "", MaxWorkers: 1, Provider: r.local()}); err == nil {
		t.Error("empty label accepted")
	}
}

func TestGPUOnCPUWorkerFails(t *testing.T) {
	r := newRig(t, 1)
	ex, _ := New(r.env, Config{Label: "cpu", MaxWorkers: 1, Provider: r.local()})
	d := faas.NewDFK(r.env, faas.Config{}, ex)
	d.Register(faas.App{Name: "wantsgpu", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
		_, err := inv.GPU()
		return nil, err
	}})
	d.Start()
	r.env.Spawn("main", func(p *devent.Proc) {
		if _, err := d.Submit("wantsgpu").Result(p); err == nil {
			t.Error("CPU worker handed out a GPU")
		}
	})
	r.run(t)
}
