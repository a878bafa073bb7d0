// Package provider supplies compute blocks (nodes) to executors,
// mirroring Parsl's execution providers (§2.2.1): the LocalProvider
// hands out the local machine immediately, while the SlurmProvider
// models a batch queue that grants nodes after a queue delay.
package provider

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/devent"
	"repro/internal/gpuctl"
)

// Provider grants compute nodes to an executor.
type Provider interface {
	// Name identifies the provider ("local", "slurm").
	Name() string
	// Provision requests n nodes. The returned event fires with
	// []*gpuctl.Node once granted, or fails if the request cannot be
	// satisfied.
	Provision(n int) *devent.Event
	// Release returns previously granted nodes to the pool so a later
	// Provision can grant them again. Releasing a node the provider
	// never granted (or releasing it twice) is an error.
	Release(nodes []*gpuctl.Node) error
}

// LocalProvider provisions the local node, as the paper's testbed
// configuration does (Listing 1 uses Parsl's LocalProvider).
type LocalProvider struct {
	env  *devent.Env
	node *gpuctl.Node
}

// NewLocal wraps the local node.
func NewLocal(env *devent.Env, node *gpuctl.Node) *LocalProvider {
	return &LocalProvider{env: env, node: node}
}

// Name implements Provider.
func (l *LocalProvider) Name() string { return "local" }

// Provision implements Provider: any request is satisfied immediately
// with n references to the single local node (Parsl local blocks are
// worker pools on the same machine).
func (l *LocalProvider) Provision(n int) *devent.Event {
	ev := l.env.NewEvent()
	nodes := make([]*gpuctl.Node, n)
	for i := range nodes {
		nodes[i] = l.node
	}
	ev.Fire(nodes)
	return ev
}

// Release implements Provider: local blocks are references to the one
// machine, so there is nothing to return — any reference to the local
// node releases successfully, anything else is an error.
func (l *LocalProvider) Release(nodes []*gpuctl.Node) error {
	for _, n := range nodes {
		if n != l.node {
			return errors.New("provider: local release of foreign node")
		}
	}
	return nil
}

// SlurmProvider models an HPC batch system: a fixed pool of nodes
// granted after a queue delay, the dominant latency when Parsl runs
// against a supercomputer. Grants come from a free-list so released
// nodes can be granted again: an earlier revision kept a monotone
// cursor into the pool, which made any scale-down→scale-up cycle
// exhaust it permanently.
type SlurmProvider struct {
	env        *devent.Env
	queueDelay time.Duration
	// free is the grantable pool in deterministic order: initial order
	// at construction, released nodes appended at the back.
	free []*gpuctl.Node
	// outstanding tracks granted-but-unreleased nodes (and how many
	// grants each has, to reject double releases).
	outstanding map[*gpuctl.Node]int
	granted     int
	capacity    int
}

// NewSlurm creates a provider over a node pool with a fixed queue
// delay per allocation.
func NewSlurm(env *devent.Env, queueDelay time.Duration, nodes ...*gpuctl.Node) *SlurmProvider {
	return &SlurmProvider{
		env:         env,
		queueDelay:  queueDelay,
		free:        append([]*gpuctl.Node(nil), nodes...),
		outstanding: make(map[*gpuctl.Node]int),
		capacity:    len(nodes),
	}
}

// Name implements Provider.
func (s *SlurmProvider) Name() string { return "slurm" }

// Provision implements Provider: after the queue delay, n distinct
// nodes are granted from the front of the free-list;
// over-subscription fails the event.
func (s *SlurmProvider) Provision(n int) *devent.Event {
	ev := s.env.NewEvent()
	s.env.Schedule(s.queueDelay, func() {
		if n > len(s.free) {
			ev.Fail(fmt.Errorf("provider: slurm pool exhausted (%d of %d granted, want %d)",
				s.granted, s.capacity, n))
			return
		}
		out := append([]*gpuctl.Node(nil), s.free[:n]...)
		s.free = s.free[n:]
		for _, node := range out {
			s.outstanding[node]++
		}
		s.granted += n
		ev.Fire(out)
	})
	return ev
}

// Release implements Provider: the nodes return to the back of the
// free-list, immediately grantable by the next Provision (releasing
// carries no queue delay — giving nodes back to the batch system is
// instant; re-acquiring them pays the delay again).
func (s *SlurmProvider) Release(nodes []*gpuctl.Node) error {
	for _, node := range nodes {
		if s.outstanding[node] == 0 {
			return errors.New("provider: slurm release of a node that was not granted")
		}
	}
	for _, node := range nodes {
		s.outstanding[node]--
		if s.outstanding[node] == 0 {
			delete(s.outstanding, node)
		}
		s.free = append(s.free, node)
		s.granted--
	}
	return nil
}

// Granted reports how many granted nodes are currently outstanding
// (grants minus releases).
func (s *SlurmProvider) Granted() int { return s.granted }
