// Package colmena is a compact analogue of the Colmena framework the
// paper's molecular-design application runs on (§3.1, ref. [31]):
// "thinker" agents steer an ensemble of method invocations through a
// task server backed by the FaaS runtime, with results routed to
// topic queues.
package colmena

import (
	"fmt"

	"repro/internal/devent"
	"repro/internal/faas"
)

// Result is a completed method invocation delivered to a topic queue.
type Result struct {
	// Method is the method name.
	Method string
	// Topic is the queue it was routed to.
	Topic string
	// Value is the method's return value (nil on error).
	Value any
	// Err is the method's error (nil on success).
	Err error
	// Task is the underlying FaaS task record (timings, worker).
	Task *faas.Task
}

// Queues routes results by topic.
type Queues struct {
	env    *devent.Env
	topics map[string]*devent.Chan[Result]
}

// NewQueues creates an empty topic router.
func NewQueues(env *devent.Env) *Queues {
	return &Queues{env: env, topics: make(map[string]*devent.Chan[Result])}
}

func (q *Queues) topic(name string) *devent.Chan[Result] {
	c, ok := q.topics[name]
	if !ok {
		c = devent.NewChan[Result](q.env, 1<<16)
		q.topics[name] = c
	}
	return c
}

// Send delivers a result to its topic (non-blocking; queues are
// effectively unbounded).
func (q *Queues) Send(r Result) {
	if !q.topic(r.Topic).TrySend(r) {
		panic(fmt.Sprintf("colmena: topic %q overflow", r.Topic))
	}
}

// Recv blocks until a result arrives on the topic.
func (q *Queues) Recv(p *devent.Proc, topic string) Result {
	r, ok := q.topic(topic).Recv(p)
	if !ok {
		return Result{Topic: topic, Err: fmt.Errorf("colmena: topic %q closed", topic)}
	}
	return r
}

// Pending reports queued results on a topic.
func (q *Queues) Pending(topic string) int { return q.topic(topic).Len() }

// TaskServer registers methods on the DFK and dispatches invocations,
// pushing each completion to the requested topic.
type TaskServer struct {
	dfk    *faas.DFK
	queues *Queues
	n      int
}

// NewTaskServer wires a task server over a DFK.
func NewTaskServer(dfk *faas.DFK, queues *Queues) *TaskServer {
	return &TaskServer{dfk: dfk, queues: queues}
}

// Queues returns the server's topic router.
func (ts *TaskServer) Queues() *Queues { return ts.queues }

// RegisterMethod adds a callable method executing on the named
// executor.
func (ts *TaskServer) RegisterMethod(name, executor string, fn faas.AppFunc) {
	ts.dfk.Register(faas.App{Name: name, Executor: executor, Fn: fn})
}

// Submit dispatches method(args...) and routes the result to topic.
// It returns immediately; the result arrives on the queue.
func (ts *TaskServer) Submit(topic, method string, args ...any) *faas.Future {
	fut := ts.dfk.Submit(method, args...)
	ts.n++
	fut.Event().OnFire(func(ev *devent.Event) {
		ts.queues.Send(Result{
			Method: method,
			Topic:  topic,
			Value:  ev.Value(),
			Err:    ev.Err(),
			Task:   fut.Task(),
		})
	})
	return fut
}

// Submitted reports how many invocations have been dispatched.
func (ts *TaskServer) Submitted() int { return ts.n }

// CollectN receives exactly n results from a topic, in arrival order.
func CollectN(p *devent.Proc, q *Queues, topic string, n int) []Result {
	out := make([]Result, 0, n)
	for len(out) < n {
		out = append(out, q.Recv(p, topic))
	}
	return out
}
