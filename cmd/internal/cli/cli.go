// Package cli is the command-line surface paperbench and gpufaas share:
// one binder for the telemetry flags (-serve, -sample, -trace,
// -metrics, -attrib, -flame, -slo, -alerts) that validates
// them, runs the live observability server and hands each run its
// Attach hook, plus the tracediff mode.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/live"
	"repro/internal/obs/tsdb"
)

// Set selects which shared flags a command binds, beyond -serve and
// -alerts, which every command binds, and how it runs.
type Set uint

const (
	Sample  Set = 1 << iota // -sample
	Exports                 // -trace, -metrics, -attrib, -flame, -slo
	// RulePack marks a scenario with its own alert-rule pack: -alerts
	// writes the pack's history and stands alone. Without it -alerts
	// writes the SLO monitor's stream and requires -slo.
	RulePack
	// Single marks a command that runs one simulation. Under -serve
	// that run streams its spans into the /spans tail whenever no
	// snapshot export needs them retained.
	Single
)

// Flags holds the parsed shared flags of one command.
type Flags struct {
	prog string
	set  Set

	Serve, Trace, Metrics, Attrib, Flame, SLO, Alerts string
	Sample                                            int

	srv *live.Server
}

// Bind registers the flags set selects on fs; prog prefixes messages.
func Bind(fs *flag.FlagSet, prog string, set Set) *Flags {
	f := &Flags{prog: prog, set: set}
	fs.StringVar(&f.Serve, "serve", "", "serve live observability over HTTP on this address, e.g. 127.0.0.1:9190")
	usage := "write the SLO alert stream (requires -slo)"
	if set&RulePack != 0 {
		usage = "write the alert-rule history of the scenario's rule pack"
	}
	fs.StringVar(&f.Alerts, "alerts", "", usage)
	if set&Sample != 0 {
		fs.IntVar(&f.Sample, "sample", 0, "keep ~1/N of task trees in the trace")
	}
	if set&Exports != 0 {
		fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace-event JSON file")
		fs.StringVar(&f.Metrics, "metrics", "", "write Prometheus text metrics")
		fs.StringVar(&f.Attrib, "attrib", "", "write the latency-attribution JSON")
		fs.StringVar(&f.Flame, "flame", "", "write folded flamegraph stacks")
		fs.StringVar(&f.SLO, "slo", "", "SLO burn-rate rules app:latency:target[:window], comma-separated")
	}
	return f
}

// Start validates the parsed flags, exiting 2 with a message on bad
// input, and with -serve starts the live server, exiting 1 if it
// cannot listen.
func (f *Flags) Start() {
	if err := f.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", f.prog, err)
		os.Exit(2)
	}
	if f.Serve == "" {
		return
	}
	f.srv = live.NewServer()
	bound, err := f.srv.Start(f.Serve)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: -serve: %v\n", f.prog, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s: live observability on http://%s\n", f.prog, bound)
	f.srv.Progress().SetPhase("running")
}

func (f *Flags) validate() error {
	if f.Alerts != "" && f.SLO == "" && f.set&RulePack == 0 {
		return errors.New("-alerts requires -slo")
	}
	if f.SLO != "" {
		if _, err := analyze.ParseSLOSpec(f.SLO); err != nil {
			return fmt.Errorf("-slo: %w", err)
		}
	}
	return nil
}

// Analyzes reports whether an attribution export — -attrib, -flame,
// or the SLO -alerts stream — reads the run's spans.
func (f *Flags) Analyzes() bool {
	return f.Attrib != "" || f.Flame != "" || (f.Alerts != "" && f.set&RulePack == 0)
}

// Attach returns the hook a command sets as its runs' Attach: nil
// without -serve, else the server's hook (live.Server.Attach), which
// registers each run's store and decides its tail. A Single command's
// run may stream into its tail unless a snapshot export reads its
// retained spans: -trace or an attribution export. paperbench's grids
// keep their collection mode.
func (f *Flags) Attach() func(*obs.Collector, *tsdb.DB) {
	if f.srv == nil {
		return nil
	}
	retained := f.Trace != "" || f.Analyzes()
	return f.srv.Attach(f.set&Single != 0 && !retained)
}

// TSDB returns the store request of a Single command's run: the
// default store under -serve, which serves it, or with -alerts on a
// RulePack command, whose rule pack lives on the store; else nil.
func (f *Flags) TSDB() *tsdb.Config {
	if f.srv != nil || (f.Alerts != "" && f.set&RulePack != 0) {
		return &tsdb.Config{}
	}
	return nil
}

// Progress returns the live server's progress tracker, nil without
// -serve.
func (f *Flags) Progress() *live.Progress {
	if f.srv == nil {
		return nil
	}
	return f.srv.Progress()
}

// Linger keeps a -serve server answering after the run completes (CI
// and humans curl the endpoints after the fact) until the process is
// interrupted. Without -serve it returns at once.
func (f *Flags) Linger() {
	if f.srv == nil {
		return
	}
	f.srv.Progress().SetPhase("done")
	fmt.Fprintf(os.Stderr, "%s: run complete; still serving — interrupt (Ctrl-C) to exit\n", f.prog)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	f.srv.Close()
}
