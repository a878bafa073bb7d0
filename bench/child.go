package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"time"
)

// childResult is what one repetition measures inside its own process.
// The parent adds what only it can see: set-up time from its exec call
// and the child's peak RSS.
type childResult struct {
	FirstUnixNS int64   `json:"first_unix_ns"` // wall clock at the first simulated activity
	RunS        float64 `json:"run_s"`         // first activity to the end of the workload's work
	Mallocs     uint64  `json:"mallocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	GCCPUFrac   float64 `json:"gc_cpu_frac"` // GC share of the CPU the process used during the run
	GCCycles    uint32  `json:"gc_cycles"`
	// LiveHeapMB and GoroutinesLeft are read after the run has returned
	// and a forced GC: whatever the simulation left reachable.
	LiveHeapMB     float64          `json:"live_heap_mb"`
	GoroutinesLeft int              `json:"goroutines_left"`
	LayerNS        map[string]int64 `json:"layer_ns,omitempty"` // profiled repetitions only
	Outcome        *outcome         `json:"outcome"`
}

// measure runs one repetition of w in this process.
func measure(w *workload, sz sizes, seed int64, profiled bool) (*childResult, error) {
	var prof bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	var first, end time.Time
	var m0, m1 runtime.MemStats
	var gc1, used1 float64
	ph := phase{
		start: func() {
			if first.IsZero() {
				first = time.Now()
			}
		},
		stop: func() {
			end = time.Now()
			runtime.ReadMemStats(&m1)
			gc1, used1 = gcCPU()
			if profiled {
				pprof.StopCPUProfile()
			}
		},
	}
	gc0, used0 := gcCPU()
	runtime.ReadMemStats(&m0)
	out, err := w.run(sz, seed, ph)
	if err != nil {
		if profiled && end.IsZero() {
			pprof.StopCPUProfile()
		}
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if first.IsZero() || end.IsZero() {
		return nil, fmt.Errorf("%s: run phase not marked", w.name)
	}
	r := &childResult{
		FirstUnixNS: first.UnixNano(),
		RunS:        end.Sub(first).Seconds(),
		Mallocs:     m1.Mallocs - m0.Mallocs,
		AllocBytes:  m1.TotalAlloc - m0.TotalAlloc,
		GCCycles:    m1.NumGC - m0.NumGC,
		Outcome:     out,
	}
	if used1 > used0 {
		r.GCCPUFrac = (gc1 - gc0) / (used1 - used0)
	}
	if profiled {
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		r.LayerNS = foldLayers(p)
	}
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	r.LiveHeapMB = float64(m2.HeapAlloc) / (1 << 20)
	r.GoroutinesLeft = runtime.NumGoroutine() - 1
	return r, nil
}

// probeSetup runs w only until its first simulated activity, prints
// that instant and exits: one more set-up sample, without the run.
func probeSetup(w *workload, seed int64) error {
	start := func() {
		fmt.Printf("{\"first_unix_ns\":%d}\n", time.Now().UnixNano())
		os.Exit(0)
	}
	if _, err := w.run(fullSizes, seed, phase{start: start, stop: func() {}}); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return fmt.Errorf("%s: run phase not marked", w.name)
}

// gcCPU returns the runtime's estimates of CPU seconds spent in GC and
// CPU seconds used at all (available minus idle) since start.
func gcCPU() (gc, used float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}
