package core

import (
	"time"

	"repro/internal/colmena"
	"repro/internal/devent"
	"repro/internal/metrics"
	"repro/internal/moldesign"
	"repro/internal/trace"
)

// Fig3Result carries the molecular-design campaign outcome plus the
// phase trace behind the paper's Fig. 3.
type Fig3Result struct {
	Report *moldesign.Report
	Trace  *trace.Log
	// GPUBusyFraction is the fraction of the campaign the GPU spent
	// on training or inference; the complement is the idle time the
	// paper's Fig. 3 highlights.
	GPUBusyFraction float64
	// GPUIdleGaps counts distinct idle intervals on the GPU ("white
	// lines" in Fig. 3).
	GPUIdleGaps int
	// DeviceBusy is the GPU's busy-SM step series for sparkline
	// rendering.
	DeviceBusy *metrics.StepSeries
	// DeviceSMs is the GPU's SM count (the sparkline's full scale).
	DeviceSMs int
	Makespan  time.Duration
}

// RunMolDesign executes the molecular-design campaign (§3.1) on the
// platform's FaaS stack: simulations on the 16-worker CPU executor,
// training and inference on one GPU worker.
func RunMolDesign(cfg moldesign.Config) (*Fig3Result, error) {
	return runMolDesign(cfg, false)
}

// RunMolDesignPipelined runs the asynchronous variant the paper
// suggests under Fig. 3 ("pipe-lining this application will yield
// higher accelerator utilization"): same simulation budget, streaming
// retrain/rescore overlapping the CPU simulations.
func RunMolDesignPipelined(cfg moldesign.Config) (*Fig3Result, error) {
	return runMolDesign(cfg, true)
}

func runMolDesign(cfg moldesign.Config, pipelined bool) (*Fig3Result, error) {
	pl, err := NewPlatform(Options{})
	if err != nil {
		return nil, err
	}
	defer pl.Env.Close()
	log := &trace.Log{}
	res := &Fig3Result{Trace: log}
	runErr := pl.Run(func(p *devent.Proc) error {
		if err := pl.ConfigureGPUExecutor(p, []string{"0"}, nil); err != nil {
			return err
		}
		ts := colmena.NewTaskServer(pl.DFK, colmena.NewQueues(pl.Env))
		campaign := moldesign.New(cfg, ts, "cpu", "gpu", log)
		var rep *moldesign.Report
		if pipelined {
			rep, err = campaign.RunPipelined(p)
		} else {
			rep, err = campaign.Run(p)
		}
		if err != nil {
			return err
		}
		res.Report = rep
		res.Makespan = p.Now()
		gpuSpans := append(log.OfKind("training"), log.OfKind("inference")...)
		res.GPUBusyFraction = trace.BusyFraction(gpuSpans, 0, res.Makespan)
		res.GPUIdleGaps = len(trace.Gaps(gpuSpans, 0, res.Makespan))
		res.DeviceBusy = pl.Devices[0].BusySeries()
		res.DeviceSMs = pl.Devices[0].Spec().SMs
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}
