package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/faas"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/tsdb"
	"repro/internal/simgpu"
)

// settledGoroutines polls until the goroutine count drops to want: a
// goroutine that has sent its last ack is still counted for a moment.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// The scenario runners close their Envs, so a run leaves no goroutine
// behind: not the parked worker daemons, not the idle proc pool.
func TestRunnersLeaveNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"RunMillionTask", func() error {
			_, err := RunMillionTask(ScaleConfig{Tasks: 4000, Shards: 2, Sinks: []obs.SpanSink{&countSink{}, &countSink{}}})
			return err
		}},
		{"RunAutoscale", func() error {
			cfg := AutoscaleConfig{Seed: 1}.WithDefaults()
			cfg.Traffic.Horizon = 20 * time.Minute
			_, err := RunAutoscale(cfg)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			if got := settledGoroutines(before); got > before {
				t.Fatalf("goroutines: %d before the run, %d after", before, got)
			}
		})
	}
}

// exportAll renders every artifact a -trace/-metrics/-attrib/-alerts
// run writes from a collector.
func exportAll(t *testing.T, c *obs.Collector) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := obs.WriteChromeTrace(&b, c); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePrometheus(&b, c); err != nil {
		t.Fatal(err)
	}
	if err := analyze.Analyze(c).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := analyze.WriteAlerts(&b, c); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// Close unwinds parked workers without touching what the run recorded:
// the artifacts rendered after Close are byte-identical to those
// rendered before it. The workers hold live MPS GPU contexts and open
// lifecycle spans, so an unwind that ran their exit path (end the
// span, drop the live-workers gauge) would show.
func TestCloseLeavesArtifactsUnchanged(t *testing.T) {
	before := runtime.NumGoroutine()
	pl, err := NewPlatform(Options{
		DeviceSpecs: []simgpu.DeviceSpec{simgpu.A100SXM480GB()},
		Observe:     true,
		SLO:         "gemm:1ms:0.9",
		TSDB:        &tsdb.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	pl.Register(faas.App{Name: "gemm", Executor: "gpu", Fn: func(inv *faas.Invocation) (any, error) {
		ctx, err := inv.GPU()
		if err != nil {
			return nil, err
		}
		_, err = ctx.Run(inv.Proc(), simgpu.Kernel{Name: "gemm", FLOPs: 1e12, Bytes: 1e9, Overhead: time.Millisecond})
		return nil, err
	}})
	err = pl.Run(func(p *devent.Proc) error {
		if _, err := pl.StartMPS(p, 0); err != nil {
			return err
		}
		if err := pl.ConfigureGPUExecutor(p, []string{"0", "0"}, []int{50, 50}); err != nil {
			return err
		}
		futs := make([]*faas.Future, 8)
		for i := range futs {
			futs[i] = pl.DFK.Submit("gemm")
		}
		for _, f := range futs {
			if _, err := f.Result(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	open := exportAll(t, pl.Obs)
	live := pl.Obs.Metrics().Gauge("htex_workers_live", obs.L("executor", "gpu")).Value()
	pl.Env.Close()
	if closed := exportAll(t, pl.Obs); !bytes.Equal(open, closed) {
		t.Fatalf("artifacts changed across Close (%d -> %d bytes)", len(open), len(closed))
	}
	if live != 2 {
		t.Fatalf("htex_workers_live before Close = %v, want 2 parked workers", live)
	}
	if got := settledGoroutines(before); got > before {
		t.Fatalf("goroutines: %d before the run, %d after Close", before, got)
	}
}
