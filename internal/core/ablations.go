package core

import (
	"fmt"
	"time"

	"repro/internal/devent"
	"repro/internal/harness"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/simgpu"
)

// This file holds the ablation studies DESIGN.md calls out: each
// isolates one modelling choice or design axis behind the headline
// results.

// GapAblationRow relates the host-side per-token gap to the benefit
// of plain time-sharing — the mechanism behind "any form of
// multiplexing, even time sharing, decreases total task completion
// time" (§5.2).
type GapAblationRow struct {
	HostGap time.Duration
	// SingleMakespan and Timeshare4Makespan are Fig.-4-style runs.
	SingleMakespan     time.Duration
	Timeshare4Makespan time.Duration
	// Improvement is 1 - timeshare4/single.
	Improvement float64
}

// AblationHostGap sweeps the host gap: with no gap the GPU is already
// saturated by one process and time-sharing cannot help; the larger
// the gap, the more time-sharing recovers.
func AblationHostGap(gaps []time.Duration, completions int) ([]GapAblationRow, error) {
	if completions <= 0 {
		completions = 24
	}
	return harness.Map(len(gaps), func(i int) (GapAblationRow, error) {
		gap := gaps[i]
		model := llm.LLaMa27B()
		model.HostGapPerToken = gap
		single, err := RunMultiplex(MultiplexConfig{Mode: ModeTimeshare, Processes: 1, Completions: completions, Model: model})
		if err != nil {
			return GapAblationRow{}, err
		}
		shared, err := RunMultiplex(MultiplexConfig{Mode: ModeTimeshare, Processes: 4, Completions: completions, Model: model})
		if err != nil {
			return GapAblationRow{}, err
		}
		return GapAblationRow{
			HostGap:            gap,
			SingleMakespan:     single.Makespan,
			Timeshare4Makespan: shared.Makespan,
			Improvement:        1 - shared.Makespan.Seconds()/single.Makespan.Seconds(),
		}, nil
	})
}

// MemFractionRow relates the decode's memory-traffic fraction to the
// MPS-vs-MIG gap at three processes — the bandwidth-quantization
// mechanism (§5.2's "MPS can divide GPU in a much more fine-grained
// way").
type MemFractionRow struct {
	MemFraction float64
	MPS3        time.Duration
	MIG3        time.Duration
	// MIGPenalty is MIG3/MPS3.
	MIGPenalty float64
}

// AblationMemFraction sweeps TokenMemFraction: at 0 the workloads are
// pure compute and MIG-2g (28 SMs ≥ the 20-SM knee) matches MPS; as
// traffic grows, MIG's hard 2/8 bandwidth slice falls behind MPS's
// soft 1/3 share.
func AblationMemFraction(fracs []float64, completions int) ([]MemFractionRow, error) {
	if completions <= 0 {
		completions = 24
	}
	return harness.Map(len(fracs), func(i int) (MemFractionRow, error) {
		f := fracs[i]
		model := llm.LLaMa27B()
		model.TokenMemFraction = f
		mps, err := RunMultiplex(MultiplexConfig{Mode: ModeMPS, Processes: 3, Completions: completions, Model: model})
		if err != nil {
			return MemFractionRow{}, err
		}
		mig, err := RunMultiplex(MultiplexConfig{Mode: ModeMIG, Processes: 3, Completions: completions, Model: model})
		if err != nil {
			return MemFractionRow{}, err
		}
		return MemFractionRow{
			MemFraction: f,
			MPS3:        mps.Makespan,
			MIG3:        mig.Makespan,
			MIGPenalty:  mig.Makespan.Seconds() / mps.Makespan.Seconds(),
		}, nil
	})
}

// BatchVsMultiplexRow compares in-process batching against cross-
// process multiplexing for the same total work.
type BatchVsMultiplexRow struct {
	Strategy   string
	Throughput float64
	MeanLat    time.Duration
}

// AblationBatchVsMultiplex contrasts the two ways to fill an A100 with
// LLaMa-2-7B work: one process decoding batches of B, versus B
// MPS-partitioned single-stream processes. Batching wins on raw
// throughput (one weight stream serves the whole batch) — but it
// requires one tenant owning all requests, which is exactly what a
// multi-tenant FaaS platform does not have; that asymmetry is the
// paper's motivation.
func AblationBatchVsMultiplex(completions int) ([]BatchVsMultiplexRow, error) {
	if completions <= 0 {
		completions = 40
	}
	batches := []int{1, 2, 4}
	multiplexes := []int{2, 4}
	return harness.Map(len(batches)+len(multiplexes), func(i int) (BatchVsMultiplexRow, error) {
		if i < len(batches) {
			return runBatched(batches[i], completions)
		}
		n := multiplexes[i-len(batches)]
		r, err := RunMultiplex(MultiplexConfig{Mode: ModeMPS, Processes: n, Completions: completions})
		if err != nil {
			return BatchVsMultiplexRow{}, err
		}
		return BatchVsMultiplexRow{
			Strategy:   fmt.Sprintf("multiplex MPS x%d", n),
			Throughput: r.Throughput,
			MeanLat:    r.MeanLatency(),
		}, nil
	})
}

// runBatched serves `completions` requests from a single engine with
// the given batch size.
func runBatched(batch, completions int) (BatchVsMultiplexRow, error) {
	cfg := llm.LLaMa27B()
	cfg.BatchSize = batch
	var lat metrics.Durations
	var makespan time.Duration
	err := probe(1, simgpu.A100SXM480GB(), simgpu.PolicyTimeShare, func(s *sim, p *devent.Proc) error {
		ctx, _ := s.Devices[0].NewContext(p, simgpu.ContextOpts{SkipInit: true})
		eng, err := s.load(p, cfg, ctx)
		if err != nil {
			return err
		}
		start := p.Now()
		done := 0
		for done < completions {
			cs, err := eng.CompleteBatch(p, 20, 20)
			if err != nil {
				return err
			}
			for _, c := range cs {
				if done < completions {
					lat.Add(c.Latency)
					done++
				}
			}
		}
		makespan = p.Now() - start
		return nil
	})
	if err != nil {
		return BatchVsMultiplexRow{}, err
	}
	return BatchVsMultiplexRow{
		Strategy:   fmt.Sprintf("batch x%d (one process)", batch),
		Throughput: metrics.Throughput(completions, makespan),
		MeanLat:    lat.Mean(),
	}, nil
}

// QuantumRow relates the vGPU time-slice length to tenant latency.
type QuantumRow struct {
	Quantum time.Duration
	MeanLat time.Duration
}

// AblationVGPUQuantum sweeps the vGPU scheduler quantum for four
// tenants. The finding matches Table 1's qualitative row: whatever
// the quantum, vGPU delivers time-sharing-level latency (≈N× the
// single-stream latency) because VM-level slicing extracts no spatial
// parallelism — long quanta merely trade a little efficiency (host
// gaps overlap within a turn) against coarser-grained waiting.
func AblationVGPUQuantum(quanta []time.Duration, completions int) ([]QuantumRow, error) {
	if completions <= 0 {
		completions = 16
	}
	return harness.Map(len(quanta), func(i int) (QuantumRow, error) {
		r, err := runVGPUWithQuantum(quanta[i], completions)
		if err != nil {
			return QuantumRow{}, err
		}
		return QuantumRow{Quantum: quanta[i], MeanLat: r}, nil
	})
}

func runVGPUWithQuantum(q time.Duration, completions int) (time.Duration, error) {
	s, err := newSim(simgpu.PolicyVGPU, simgpu.A100SXM480GB())
	if err != nil {
		return 0, err
	}
	dev := s.Devices[0]
	dev.SetVGPUQuantum(q)
	var lat metrics.Durations
	for i := 0; i < 4; i++ {
		s.spawn("vm", func(p *devent.Proc) error {
			ctx, _ := dev.NewContext(p, simgpu.ContextOpts{SkipInit: true, Group: fmt.Sprintf("vm%d", i)})
			eng, err := s.load(p, llm.LLaMa27B(), ctx)
			if err != nil {
				return err
			}
			for c := 0; c < completions/4; c++ {
				comp, err := eng.Complete(p, 20, 20)
				if err != nil {
					return err
				}
				lat.Add(comp.Latency)
			}
			return nil
		})
	}
	err = s.drain()
	return lat.Mean(), err
}
