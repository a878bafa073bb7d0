// Package fault is a seeded, deterministic fault injector for the
// simulated FaaS platform. It runs entirely on virtual time: fault
// arrivals are drawn from a seeded exponential process (plus
// explicitly scheduled faults), targets are picked in a deterministic
// listing order, and every draw happens in simulation-event order —
// so a chaos run is a pure function of its Spec, reproducible
// byte-for-byte at any host parallelism.
//
// Fault kinds map to the platform's real failure modes: worker-process
// crashes (OOM kills), GPU context loss (uncorrectable ECC errors),
// reconfiguration kills (a MIG/MPS repartition destroying every worker
// of an executor), and transient submit failures.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind names one fault class.
type Kind string

// Fault kinds. KindSubmit is probability-driven (Spec.SubmitFailProb)
// rather than arrival-driven.
const (
	// KindWorker kills one worker process (its in-flight task fails
	// with a retriable error).
	KindWorker Kind = "worker"
	// KindGPU destroys one GPU context as an uncorrectable ECC error
	// would: kernels fail, memory is freed.
	KindGPU Kind = "gpu"
	// KindReconfig kills every worker of one executor at once — the
	// blast radius of a MIG/MPS repartition racing live work.
	KindReconfig Kind = "reconfig"
	// KindSubmit fails a task dispatch attempt with ErrInjected
	// (retriable), with probability Spec.SubmitFailProb per attempt.
	KindSubmit Kind = "submit"
)

// kindOrder fixes the deterministic candidate-listing order.
var kindOrder = []Kind{KindWorker, KindGPU, KindReconfig}

// validKinds is the parse/validate whitelist.
var validKinds = map[Kind]bool{
	KindWorker: true, KindGPU: true, KindReconfig: true, KindSubmit: true,
}

// Spec configures a chaos run. The zero Spec injects nothing.
type Spec struct {
	// Seed seeds both the arrival process and the submit-failure
	// draws; 0 means seed 1.
	Seed int64
	// Rate is the mean random-fault arrival rate in faults per
	// simulated second (a Poisson process). 0 disables random
	// arrivals (scheduled faults via Injector.At still fire).
	Rate float64
	// SubmitFailProb fails each dispatch attempt with this
	// probability (transient, retriable). 0 disables.
	SubmitFailProb float64
	// Kinds restricts injection to the listed kinds; empty enables
	// all.
	Kinds []Kind
	// After delays the first random fault to this virtual time.
	After time.Duration
	// Until stops random arrivals after this virtual time (0 = no
	// bound; pair with MaxFaults or Injector.Stop to end the run).
	Until time.Duration
	// MaxFaults caps the number of injected faults (0 = uncapped).
	MaxFaults int
}

// Validate checks the spec's ranges.
func (s Spec) Validate() error {
	if math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) || s.Rate < 0 {
		return fmt.Errorf("fault: rate %v out of range", s.Rate)
	}
	if math.IsNaN(s.SubmitFailProb) || s.SubmitFailProb < 0 || s.SubmitFailProb > 1 {
		return fmt.Errorf("fault: pfail %v outside [0,1]", s.SubmitFailProb)
	}
	if s.After < 0 || s.Until < 0 {
		return errors.New("fault: negative time bound")
	}
	if s.Until > 0 && s.Until < s.After {
		return fmt.Errorf("fault: until %v before after %v", s.Until, s.After)
	}
	if s.MaxFaults < 0 {
		return fmt.Errorf("fault: negative max %d", s.MaxFaults)
	}
	seen := map[Kind]bool{}
	for _, k := range s.Kinds {
		if !validKinds[k] {
			return fmt.Errorf("fault: unknown kind %q", k)
		}
		if seen[k] {
			return fmt.Errorf("fault: duplicate kind %q", k)
		}
		seen[k] = true
	}
	return nil
}

// enabled reports whether a kind participates (empty Kinds = all).
func (s Spec) enabled(k Kind) bool {
	if len(s.Kinds) == 0 {
		return true
	}
	for _, have := range s.Kinds {
		if have == k {
			return true
		}
	}
	return false
}

// String renders the spec in the canonical -chaos flag syntax;
// ParseSpec(s.String()) reproduces s (with Kinds sorted).
func (s Spec) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if s.Seed != 0 {
		add("seed", strconv.FormatInt(s.Seed, 10))
	}
	if s.Rate != 0 {
		add("rate", strconv.FormatFloat(s.Rate, 'g', -1, 64))
	}
	if s.SubmitFailProb != 0 {
		add("pfail", strconv.FormatFloat(s.SubmitFailProb, 'g', -1, 64))
	}
	if len(s.Kinds) > 0 {
		ks := make([]string, len(s.Kinds))
		for i, k := range s.Kinds {
			ks[i] = string(k)
		}
		sort.Strings(ks)
		add("kinds", strings.Join(ks, "+"))
	}
	if s.After != 0 {
		add("after", s.After.String())
	}
	if s.Until != 0 {
		add("until", s.Until.String())
	}
	if s.MaxFaults != 0 {
		add("max", strconv.Itoa(s.MaxFaults))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the -chaos flag syntax: comma-separated key=value
// pairs, e.g. "seed=3,rate=0.5,pfail=0.05,kinds=worker+gpu,until=60s".
// Keys: seed, rate, pfail, kinds ('+'-separated), after, until, max.
// An empty string yields the zero Spec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, pair := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || val == "" {
			return Spec{}, fmt.Errorf("fault: malformed pair %q (want key=value)", pair)
		}
		var err error
		switch key {
		case "seed":
			spec.Seed, err = strconv.ParseInt(val, 10, 64)
		case "rate":
			spec.Rate, err = strconv.ParseFloat(val, 64)
		case "pfail":
			spec.SubmitFailProb, err = strconv.ParseFloat(val, 64)
		case "kinds":
			for _, k := range strings.Split(val, "+") {
				spec.Kinds = append(spec.Kinds, Kind(k))
			}
			sort.Slice(spec.Kinds, func(i, j int) bool { return spec.Kinds[i] < spec.Kinds[j] })
		case "after":
			spec.After, err = time.ParseDuration(val)
		case "until":
			spec.Until, err = time.ParseDuration(val)
		case "max":
			spec.MaxFaults, err = strconv.Atoi(val)
		default:
			return Spec{}, fmt.Errorf("fault: unknown key %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("fault: bad value for %q: %v", key, err)
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}
