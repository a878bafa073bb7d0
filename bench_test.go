package repro_test

// One benchmark per table and figure of the paper's evaluation. Each
// iteration regenerates the artifact from a fresh simulation; custom
// metrics expose the quantities the paper plots, so `go test -bench=.`
// doubles as the reproduction harness:
//
//	go test -bench=Fig4 -benchtime=1x
//
// prints the completion-time series of Fig. 4 as makespan_s metrics.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/models"
	"repro/internal/moldesign"
	"repro/internal/rightsize"
	"repro/internal/simgpu"
)

// BenchmarkFig1_LayerFLOPs rebuilds the CNN zoo and its per-layer
// profiles (Fig. 1), reporting the layer-to-layer dynamic range.
func BenchmarkFig1_LayerFLOPs(b *testing.B) {
	for _, build := range []func() *models.Model{models.ResNet50, models.ResNet101, models.VGG16, models.AlexNet} {
		m := build()
		b.Run(m.Name, func(b *testing.B) {
			var rangeX float64
			for i := 0; i < b.N; i++ {
				prof := build().ConvProfile()
				min, max := prof[0].GFLOPs, prof[0].GFLOPs
				for _, p := range prof {
					if p.GFLOPs < min {
						min = p.GFLOPs
					}
					if p.GFLOPs > max {
						max = p.GFLOPs
					}
				}
				rangeX = max / min
			}
			b.ReportMetric(rangeX, "layer_range_x")
		})
	}
}

// BenchmarkFig2_SMSweep measures the LLaMa-2 latency-vs-SMs curve
// (Fig. 2), reporting the knee ratio (latency at ~7 SMs over full).
func BenchmarkFig2_SMSweep(b *testing.B) {
	var starved, full float64
	for i := 0; i < b.N; i++ {
		res, err := core.Fig2Sweep([]int{6, 19, 100})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			if p.Model != "llama2-7b" {
				continue
			}
			switch p.Percent {
			case 6:
				starved = p.Latency.Seconds()
			case 100:
				full = p.Latency.Seconds()
			}
		}
	}
	b.ReportMetric(full, "full_gpu_latency_s")
	b.ReportMetric(starved/full, "starved_vs_full_x")
}

// BenchmarkFig3_MolDesign runs the molecular-design campaign (Fig. 3),
// reporting the GPU idle fraction the paper highlights.
func BenchmarkFig3_MolDesign(b *testing.B) {
	cfg := moldesign.DefaultConfig()
	cfg.InitialPool = 16
	cfg.CandidatePool = 1000
	cfg.BatchSize = 8
	cfg.Rounds = 2
	var idle float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunMolDesign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		idle = 1 - res.GPUBusyFraction
	}
	b.ReportMetric(idle*100, "gpu_idle_pct")
}

// BenchmarkFig4_Completion regenerates the completion-time bars of
// Fig. 4 (makespan_s) for every technique and process count.
func BenchmarkFig4_Completion(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeTimeshare, core.ModeMPS, core.ModeMIG} {
		for n := 1; n <= 4; n++ {
			b.Run(fmt.Sprintf("%s/procs=%d", mode, n), func(b *testing.B) {
				var r *core.MultiplexResult
				for i := 0; i < b.N; i++ {
					var err error
					r, err = core.RunMultiplex(core.MultiplexConfig{Mode: mode, Processes: n, Completions: 20})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.Makespan.Seconds(), "makespan_s")
				b.ReportMetric(r.Throughput, "completions_per_s")
			})
		}
	}
}

// BenchmarkFig5_Latency regenerates the average-inference-latency bars
// of Fig. 5 (latency_s).
func BenchmarkFig5_Latency(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeTimeshare, core.ModeMPS, core.ModeMIG} {
		for n := 1; n <= 4; n++ {
			b.Run(fmt.Sprintf("%s/procs=%d", mode, n), func(b *testing.B) {
				var r *core.MultiplexResult
				for i := 0; i < b.N; i++ {
					var err error
					r, err = core.RunMultiplex(core.MultiplexConfig{Mode: mode, Processes: n, Completions: 20})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.MeanLatency().Seconds(), "latency_s")
				b.ReportMetric(r.Latencies.Percentile(95).Seconds(), "p95_latency_s")
			})
		}
	}
}

// BenchmarkTable1_Techniques regenerates the quantified Table 1 rows,
// reporting each technique's utilization under the 4-tenant burst.
func BenchmarkTable1_Techniques(b *testing.B) {
	for _, mode := range core.Table1Modes {
		b.Run(string(mode), func(b *testing.B) {
			var r *core.MultiplexResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = core.RunMultiplex(core.MultiplexConfig{Mode: mode, Processes: 4, Completions: 16})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Utilization*100, "utilization_pct")
			b.ReportMetric(r.Throughput, "completions_per_s")
		})
	}
}

// BenchmarkColdStart_Breakdown measures the §6 cold-start components,
// reporting the 13B model-load time the paper quotes at ~10 s.
func BenchmarkColdStart_Breakdown(b *testing.B) {
	var load13 time.Duration
	for i := 0; i < b.N; i++ {
		rows, err := core.RunColdStart(2 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		load13 = rows[2].ModelLoad
	}
	b.ReportMetric(load13.Seconds(), "llama13b_load_s")
}

// BenchmarkReconfig_WeightCache measures the §6/§7 re-partitioning
// downtimes and the weight-cache speedup.
func BenchmarkReconfig_WeightCache(b *testing.B) {
	var restart, cached time.Duration
	for i := 0; i < b.N; i++ {
		rows, err := core.RunReconfig(2 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		restart, cached = rows[0].Downtime, rows[1].Downtime
	}
	b.ReportMetric(restart.Seconds(), "restart_s")
	b.ReportMetric(cached.Seconds(), "cached_s")
	b.ReportMetric(restart.Seconds()/cached.Seconds(), "speedup_x")
}

// BenchmarkRightsize_Knee runs the §7 right-sizing sweep, reporting
// the recovered saturation point (~20 SMs).
func BenchmarkRightsize_Knee(b *testing.B) {
	spec := simgpu.A100SXM480GB()
	var knee int
	for i := 0; i < b.N; i++ {
		curve, err := rightsize.Sweep(spec.SMs, []int{5, 10, 19, 50, 100},
			func(pct int) (time.Duration, error) {
				return core.Fig2SinglePoint(coreLLaMa(), pct)
			})
		if err != nil {
			b.Fatal(err)
		}
		k, err := rightsize.Knee(curve, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		knee = k.SMs
	}
	b.ReportMetric(float64(knee), "knee_sms")
}

// coreLLaMa returns the default 7B service config for benchmarks.
func coreLLaMa() llm.Config { return llm.LLaMa27B() }

// BenchmarkAblation_BatchVsMultiplex contrasts in-process batching
// against MPS multiplexing for identical total work.
func BenchmarkAblation_BatchVsMultiplex(b *testing.B) {
	var batch4, mps4 float64
	for i := 0; i < b.N; i++ {
		rows, err := core.AblationBatchVsMultiplex(24)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Strategy {
			case "batch x4 (one process)":
				batch4 = r.Throughput
			case "multiplex MPS x4":
				mps4 = r.Throughput
			}
		}
	}
	b.ReportMetric(batch4, "batch4_reqps")
	b.ReportMetric(mps4, "mps4_reqps")
}

// BenchmarkMixedTenancy_RealTime measures the latency-sensitive
// co-tenant study: ResNet p99 next to a LLaMa service.
func BenchmarkMixedTenancy_RealTime(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeTimeshare, core.ModeMPS, core.ModeMIG} {
		b.Run(string(mode), func(b *testing.B) {
			var p99 time.Duration
			for i := 0; i < b.N; i++ {
				r, err := core.RunMixedTenancy(mode)
				if err != nil {
					b.Fatal(err)
				}
				p99 = r.ResNetP99
			}
			b.ReportMetric(p99.Seconds()*1e3, "resnet_p99_ms")
		})
	}
}

// BenchmarkOpenLoop_Stability runs the Poisson-arrival serving
// scenario, reporting per-technique p99 latency at 0.4 req/s.
func BenchmarkOpenLoop_Stability(b *testing.B) {
	for _, mode := range []core.Mode{core.ModeTimeshare, core.ModeMPS} {
		b.Run(string(mode), func(b *testing.B) {
			var p99 time.Duration
			for i := 0; i < b.N; i++ {
				r, err := core.RunMultiplex(core.MultiplexConfig{Mode: mode, Processes: 4, Completions: 40, ArrivalRate: 0.4})
				if err != nil {
					b.Fatal(err)
				}
				p99 = r.EndToEnd.Percentile(99)
			}
			b.ReportMetric(p99.Seconds(), "p99_s")
		})
	}
}
