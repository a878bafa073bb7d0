// Command bench is the repository's benchmark. It runs one workload (or
// all of them, round-robin) as repeated fresh child processes of its
// own binary, one at a time, until the -seconds budget is spent. A few
// children that stop at the end of set-up precede each one. Each child
// runs the workload once with one harness worker and GOMAXPROCS at its
// default, so leaked heap and GC pacing never carry from one repetition
// into the next. With -trace 1 every other child also records a CPU
// profile, which the child folds into per-layer CPU shares itself.
//
// It prints one "workload metric value unit" line per metric, then, as
// the last line, a JSON record:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer ones.
// Run it from the repository root:
//
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -workload fleet -seed 2 -seconds 25 -trace 1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"repro/internal/harness"
)

func main() {
	name := flag.String("workload", "all", "workload to run: scale, fleet, autoscale, paper-observed or all")
	seed := flag.Int64("seed", 1, "seed the workload inputs are drawn from")
	seconds := flag.Int("seconds", 25, "measurement budget per workload, in seconds")
	trace := flag.Int("trace", 0, "1: profile every other repetition and report per-layer metrics")
	child := flag.String("child", "", "internal: run one repetition of this workload and print its measurements")
	profiled := flag.Bool("profile", false, "internal, with -child: record a CPU profile")
	setupOnly := flag.Bool("setup-only", false, "internal, with -child: stop at the end of set-up")
	flag.Parse()

	if *child != "" {
		if err := runChild(*child, *seed, *profiled, *setupOnly); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	ws := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	sets, err := collect(exe, ws, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := writeReport(os.Stdout, sets, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func runChild(name string, seed int64, profiled, setupOnly bool) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	harness.SetParallelism(1)
	if setupOnly {
		return probeSetup(w, seed)
	}
	r, err := measure(w, fullSizes, seed, profiled)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// rep is one child's measurements plus what the parent observed.
type rep struct {
	*childResult
	profiled bool
	setupS   float64 // exec call to first simulated activity
	rssMB    float64 // the child's peak resident set
}

// runs holds one workload's repetitions.
type runs struct {
	w      *workload
	reps   []*rep
	probes []float64 // setupS of the set-up-only children
}

// setupProbes is how many set-up-only children precede each child:
// set-up takes milliseconds and host jitter dominates it, so it gets
// more samples than the run phase, spread over the whole run.
const setupProbes = 4

// probe runs setupProbes set-up-only children of s's workload.
func (s *runs) probe(exe string, seed int64) error {
	for range setupProbes {
		r, err := spawn(exe, s.w, seed, false, true)
		if err != nil {
			return err
		}
		s.probes = append(s.probes, r.setupS)
	}
	return nil
}

// collect runs rounds of one child per workload while the next round is
// expected to fit in the budget. A minimum number of rounds always runs
// so every median has samples; with trace, rounds alternate profiled
// and plain children. Set-up probes precede every child. The first of
// them load the binary, so no timed child starts cold and no warm-up
// child is needed: each child is a fresh process and inherits nothing
// else.
func collect(exe string, ws []*workload, seed int64, budget time.Duration, trace bool) ([]*runs, error) {
	deadline := time.Now().Add(budget * time.Duration(len(ws)))
	sets := make([]*runs, len(ws))
	for i, w := range ws {
		sets[i] = &runs{w: w}
	}
	minRounds := 3
	if trace {
		minRounds = 4
	}
	var round time.Duration // the longest round so far estimates the next
	for n := 0; n < minRounds || time.Now().Add(round).Before(deadline); n++ {
		t := time.Now()
		for _, s := range sets {
			if err := s.probe(exe, seed); err != nil {
				return nil, err
			}
			r, err := spawn(exe, s.w, seed, trace && n%2 == 0, false)
			if err != nil {
				return nil, err
			}
			s.reps = append(s.reps, r)
		}
		round = max(round, time.Since(t))
	}
	return sets, nil
}

// spawn runs one child repetition and waits for it to exit. A
// setupOnly child stops at the end of set-up and reports only that.
func spawn(exe string, w *workload, seed int64, profiled, setupOnly bool) (*rep, error) {
	cmd := exec.Command(exe, "-child", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-profile="+strconv.FormatBool(profiled), "-setup-only="+strconv.FormatBool(setupOnly))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", w.name, err)
	}
	var cr childResult
	if err := json.Unmarshal(stdout.Bytes(), &cr); err != nil {
		return nil, fmt.Errorf("%s child output: %w", w.name, err)
	}
	r := &rep{childResult: &cr, profiled: profiled, setupS: float64(cr.FirstUnixNS-t0.UnixNano()) / 1e9}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}
