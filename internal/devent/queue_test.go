package devent

import (
	"container/heap"
	"math/bits"
	"math/rand/v2"
	"testing"
	"time"
	"unsafe"
)

// dispatch is one executed queue item: its time and the id the driving
// program gave it (a callback's id, or -1-k for a resume of proc k).
type dispatch struct {
	at time.Duration
	id int
}

// queueOps is what orderProgram does to a queue: arm a timer slot
// (cancelling what it holds), cancel a slot, queue a Step (which no
// one cancels) after a delay, and read the clock. Procs sleep by
// returning their delay from procStep.
type queueOps interface {
	now() time.Duration
	arm(slot int, at time.Duration, id int)
	cancel(slot int)
	step(delay time.Duration, id int)
}

// orderProgram is a random schedule/cancel/re-arm workload. It draws
// every decision from its own PCG stream, so two queues that dispatch
// in the same order see the same calls.
type orderProgram struct {
	rng    *rand.Rand
	slots  int
	procs  int
	steps  int // dispatches left before the program stops scheduling
	nextID int
	log    []dispatch
}

func newOrderProgram(s1, s2 uint64) *orderProgram {
	return &orderProgram{rng: rand.New(rand.NewPCG(s1, s2)), slots: 256, procs: 8, steps: 20000}
}

// when draws a target time: now, the past (clamped to now), the near
// future on a coarse grid (so distinct items share instants), or
// further out.
func (g *orderProgram) when(q queueOps) time.Duration {
	now := q.now()
	switch g.rng.IntN(6) {
	case 0, 1:
		return now
	case 2:
		return now - time.Duration(g.rng.IntN(5)+1)*time.Microsecond
	case 3, 4:
		return now + time.Duration(g.rng.IntN(4))*time.Microsecond
	default:
		return now + time.Duration(g.rng.IntN(1000))*time.Microsecond
	}
}

// step runs after every dispatch: it arms and cancels a few slots and
// sometimes queues a Step, due now (zero or negative delay) or later.
// Cancels outnumber arms, so compaction runs.
func (g *orderProgram) step(q queueOps, d dispatch) {
	g.log = append(g.log, d)
	if g.steps--; g.steps <= 0 {
		return
	}
	for n := g.rng.IntN(4); n > 0; n-- {
		slot := g.rng.IntN(g.slots)
		if g.rng.IntN(3) == 0 {
			g.nextID++
			q.arm(slot, g.when(q), g.nextID)
		} else {
			q.cancel(slot)
		}
	}
	if g.rng.IntN(4) == 0 {
		g.nextID++
		q.step(time.Duration(g.rng.IntN(20)-5)*time.Microsecond, g.nextID)
	}
	// Keep the queue fed: one more arm per step, often due now.
	g.nextID++
	q.arm(g.rng.IntN(g.slots), g.when(q), g.nextID)
}

// procStep is proc k's body between sleeps: it steps the program and
// returns how long to sleep (zero or not, sometimes negative), or
// false once the program has stopped.
func (g *orderProgram) procStep(q queueOps, k int) (time.Duration, bool) {
	g.step(q, dispatch{q.now(), -1 - k})
	if g.steps <= 0 {
		return 0, false
	}
	switch g.rng.IntN(3) {
	case 0:
		return 0, true
	case 1:
		return -time.Microsecond, true
	default:
		return time.Duration(g.rng.IntN(50)) * time.Microsecond, true
	}
}

// envQueue drives orderProgram through a real Env, using ArmAt,
// ScheduleAt and Schedule on its slots.
type envQueue struct {
	env         *Env
	g           *orderProgram
	slots       []*Timer
	compactions int
}

func (q *envQueue) now() time.Duration { return q.env.Now() }

func (q *envQueue) arm(slot int, at time.Duration, id int) {
	fn := func() { q.g.step(q, dispatch{q.env.Now(), id}) }
	switch q.g.rng.IntN(3) {
	case 0:
		q.env.ArmAt(q.slots[slot], at, fn)
	case 1:
		q.slots[slot].Cancel()
		q.slots[slot] = q.env.ScheduleAt(at, fn)
	default:
		q.slots[slot].Cancel()
		q.slots[slot] = q.env.Schedule(at-q.env.Now(), fn)
	}
}

// orderStep is a Step that steps the program.
type orderStep struct {
	q  *envQueue
	id int
}

func (s *orderStep) Step() { s.q.g.step(s.q, dispatch{s.q.env.Now(), s.id}) }

func (q *envQueue) step(delay time.Duration, id int) {
	q.env.ScheduleStep(delay, &orderStep{q, id})
}

func (q *envQueue) cancel(slot int) {
	if q.slots[slot].Cancel() && q.env.cancelled == 0 {
		q.compactions++
	}
}

// refItem and refHeap are the reference queue: one container/heap in
// (at, seq) order, the queue devent had before its ready lane.
type refItem struct {
	at        time.Duration
	seq       int
	id        int // callback id, or -1-k for proc k
	cancelled bool
}

type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

type refQueue struct {
	g     *orderProgram
	clock time.Duration
	seq   int
	heap  refHeap
	slots []*refItem
}

func (q *refQueue) now() time.Duration { return q.clock }

// push queues an item, clamping past times to now as the Env does.
func (q *refQueue) push(at time.Duration, id int) *refItem {
	if at < q.clock {
		at = q.clock
	}
	q.seq++
	it := &refItem{at: at, seq: q.seq, id: id}
	heap.Push(&q.heap, it)
	return it
}

func (q *refQueue) arm(slot int, at time.Duration, id int) {
	q.g.rng.IntN(3) // envQueue.arm's choice of API

	q.cancel(slot)
	q.slots[slot] = q.push(at, id)
}

func (q *refQueue) step(delay time.Duration, id int) { q.push(q.clock+delay, id) }

func (q *refQueue) cancel(slot int) {
	if it := q.slots[slot]; it != nil {
		it.cancelled = true
		q.slots[slot] = nil
	}
}

func (q *refQueue) run() {
	for q.heap.Len() > 0 {
		it := heap.Pop(&q.heap).(*refItem)
		if it.cancelled {
			continue
		}
		q.clock = it.at
		if it.id >= 0 {
			q.g.step(q, dispatch{it.at, it.id})
			continue
		}
		k := -1 - it.id
		if d, ok := q.g.procStep(q, k); ok {
			if d < 0 {
				d = 0
			}
			q.push(q.clock+d, it.id)
		}
	}
}

// runEnv runs the program seeded (s1, s2) on an Env and returns its
// dispatch sequence and how many compactions a Cancel triggered.
func runEnv(t *testing.T, s1, s2 uint64) ([]dispatch, int) {
	g := newOrderProgram(s1, s2)
	q := &envQueue{env: NewEnv(), g: g, slots: make([]*Timer, g.slots)}
	for i := range q.slots {
		q.slots[i] = &Timer{}
	}
	for k := 0; k < g.procs; k++ {
		q.env.Spawn("p", func(p *Proc) {
			for {
				d, ok := g.procStep(q, k)
				if !ok {
					return
				}
				p.Sleep(d)
			}
		})
	}
	for i := 0; i < 64; i++ {
		g.nextID++
		q.arm(g.rng.IntN(g.slots), g.when(q), g.nextID)
	}
	if err := q.env.Run(); err != nil {
		t.Fatal(err)
	}
	return g.log, q.compactions
}

// runRef runs the same program on the reference queue.
func runRef(s1, s2 uint64) []dispatch {
	g := newOrderProgram(s1, s2)
	q := &refQueue{g: g, slots: make([]*refItem, g.slots)}
	for k := 0; k < g.procs; k++ {
		q.push(0, -1-k)
	}
	for i := 0; i < 64; i++ {
		g.nextID++
		q.arm(g.rng.IntN(g.slots), g.when(q), g.nextID)
	}
	q.run()
	return g.log
}

// TestQueueOrderMatchesReference drives random schedule, cancel and
// re-arm sequences, zero and non-zero sleeps and Steps, and callbacks
// scheduling at Now() through the Env and through a single
// container/heap, and requires the same dispatch sequence.
func TestQueueOrderMatchesReference(t *testing.T) {
	t.Parallel()
	for round := 0; round < 8; round++ {
		s1 := uint64(time.Now().UnixNano())
		s2 := bits.Reverse64(uint64(time.Now().UnixNano())) ^ uint64(round)
		t.Logf("round %d: seed1 = %d, seed2 = %d", round, s1, s2)
		got, compactions := runEnv(t, s1, s2)
		want := runRef(s1, s2)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("round %d: dispatch %d is %+v, reference %+v", round, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d dispatches, reference %d", round, len(got), len(want))
		}
		if compactions == 0 {
			t.Fatalf("round %d: no Cancel compacted the queue", round)
		}
	}
}

// Every scheduled callback, Step and proc wakeup is one queueItem, so
// its size class is paid on every event. A separate field per kind of
// work (a func, a *Proc and a Step) once pushed items from the 48-byte
// class into the 64-byte one and added 3.5 B/op to the fleet
// benchmark; the single Step field keeps them at 48.
func TestQueueItemSize(t *testing.T) {
	if got := unsafe.Sizeof(queueItem{}); got > 48 {
		t.Fatalf("queueItem is %d bytes, want <= 48", got)
	}
}

// Two Events live in every faas.Future, which a task pays once, so the
// Event's size moves the Future's size class: at 112 B it leaves the
// Future 16 B under the 512 B class. An Event's waiters are the Steps
// themselves, and it carries no name.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 112 {
		t.Fatalf("Event is %d bytes, want <= 112", got)
	}
}
