package core

import (
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/obs/analyze"
	"repro/internal/simgpu"
)

func TestPlatformDefaults(t *testing.T) {
	pl, err := NewPlatform(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Devices) != 2 {
		t.Fatalf("devices = %d", len(pl.Devices))
	}
	if pl.Devices[0].Spec().Name != "A100-SXM4-80GB" {
		t.Fatalf("spec = %s", pl.Devices[0].Spec().Name)
	}
	if pl.Obs == nil || pl.DFK.Collector() != pl.Obs {
		t.Fatal("collector not wired to the DFK")
	}
}

func TestPlatformMonitorRecordsTasks(t *testing.T) {
	pl, err := NewPlatform(Options{DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()}})
	if err != nil {
		t.Fatal(err)
	}
	pl.Register(faas.App{Name: "hello", Executor: "cpu", Fn: func(inv *faas.Invocation) (any, error) {
		inv.Compute(time.Second)
		return "hi", nil
	}})
	err = pl.Run(func(p *devent.Proc) error {
		_, err := pl.DFK.Submit("hello").Result(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// The span stream alone reconstructs the task: one hello task on
	// the cpu executor whose 1 s run is host time (no device work) and
	// all of its latency.
	rep := analyze.Analyze(pl.Obs)
	if len(rep.Tasks) != 1 {
		t.Fatalf("attributed tasks = %d, want 1", len(rep.Tasks))
	}
	tk := rep.Tasks[0]
	if tk.App != "hello" || tk.Executor != "cpu" || tk.Status != "done" {
		t.Fatalf("task = %+v", tk)
	}
	if got := tk.Phases[analyze.PhaseHost]; got != time.Second || tk.Duration() != time.Second {
		t.Fatalf("host = %v, latency = %v, want 1s each (phases %v)", got, tk.Duration(), tk.Phases)
	}
	if len(rep.Groups) != 1 || rep.Groups[0].App != "hello" || rep.Groups[0].Tasks != 1 {
		t.Fatalf("groups = %+v", rep.Groups)
	}
}

func TestConfigureGPUExecutorReplaces(t *testing.T) {
	pl, err := NewPlatform(Options{
		DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()},
		WorkerInit:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var pcts []int
	pl.Register(faas.App{Name: "probe", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		ctx, err := inv.GPU()
		if err != nil {
			return nil, err
		}
		pcts = append(pcts, ctx.SMPercent())
		return nil, nil
	}})
	err = pl.Run(func(p *devent.Proc) error {
		if _, err := pl.StartMPS(p, 0); err != nil {
			return err
		}
		if err := pl.ConfigureGPUExecutor(p, []string{"0"}, []int{60}); err != nil {
			return err
		}
		if _, err := pl.DFK.Submit("probe").Result(p); err != nil {
			return err
		}
		// Reconfigure: the old executor drains, the new binding wins.
		if err := pl.ConfigureGPUExecutor(p, []string{"0"}, []int{30}); err != nil {
			return err
		}
		if _, err := pl.DFK.Submit("probe").Result(p); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pcts) != 2 || pcts[0] != 60 || pcts[1] != 30 {
		t.Fatalf("pcts = %v", pcts)
	}
	if pl.GPU() == nil {
		t.Fatal("GPU() accessor nil after configure")
	}
}

func TestPlatformConfigureMIG(t *testing.T) {
	pl, err := NewPlatform(Options{DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()}})
	if err != nil {
		t.Fatal(err)
	}
	err = pl.Run(func(p *devent.Proc) error {
		uuids, err := pl.ConfigureMIG(p, 0, []string{"3g.40gb", "3g.40gb"})
		if err != nil {
			return err
		}
		if len(uuids) != 2 {
			t.Errorf("uuids = %v", uuids)
		}
		if !pl.Devices[0].MIGEnabled() {
			t.Error("MIG not enabled")
		}
		// Re-layout works through the same call.
		uuids, err = pl.ConfigureMIG(p, 0, []string{"7g.80gb"})
		if err != nil {
			return err
		}
		if len(uuids) != 1 {
			t.Errorf("relayout uuids = %v", uuids)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlatformRunPropagatesMainError(t *testing.T) {
	pl, err := NewPlatform(Options{DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()}})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := simgpu.ErrBusy
	if got := pl.Run(func(p *devent.Proc) error { return sentinel }); got != sentinel {
		t.Fatalf("got = %v", got)
	}
}
