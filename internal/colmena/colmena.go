// Package colmena is a compact analogue of the Colmena framework the
// paper's molecular-design application runs on (§3.1, ref. [31]):
// "thinker" agents steer an ensemble of method invocations through a
// task server backed by the FaaS runtime, with results routed to
// topic queues.
package colmena

import (
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
	// Args are the invocation's arguments and Attempt counts its
	// resubmissions (0 for the first), so a thinker can Resubmit a
	// lost task a bounded number of times.
	Args    []any
	Attempt int
}

// Queues routes results by topic.
type Queues struct {
	env    *devent.Env
	topics map[string]*devent.Queue[Result]
}

// NewQueues creates an empty topic router.
func NewQueues(env *devent.Env) *Queues {
	return &Queues{env: env, topics: make(map[string]*devent.Queue[Result])}
}

func (q *Queues) topic(name string) *devent.Queue[Result] {
	c, ok := q.topics[name]
	if !ok {
		c = devent.NewQueue[Result](q.env)
		q.topics[name] = c
	}
	return c
}

// Send delivers a result to its topic without blocking.
func (q *Queues) Send(r Result) { q.topic(r.Topic).Put(r) }

// Recv blocks until a result arrives on the topic.
func (q *Queues) Recv(p *devent.Proc, topic string) Result {
	return q.topic(topic).Get(p)
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
	return ts.submit(topic, method, args, 0)
}

// Resubmit dispatches r's method and arguments again, routing the new
// result, with Attempt one higher, to r's topic.
func (ts *TaskServer) Resubmit(r Result) *faas.Future {
	return ts.submit(r.Topic, r.Method, r.Args, r.Attempt+1)
}

func (ts *TaskServer) submit(topic, method string, args []any, attempt int) *faas.Future {
	fut := ts.dfk.Submit(method, args...)
	ts.n++
	fut.Event().OnFire(func(ev *devent.Event) {
		ts.queues.Send(Result{
			Method:  method,
			Topic:   topic,
			Value:   ev.Value(),
			Err:     ev.Err(),
			Task:    fut.Task(),
			Args:    args,
			Attempt: attempt,
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
