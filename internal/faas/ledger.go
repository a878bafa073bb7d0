package faas

import (
	"fmt"
	"strings"
)

// Ledger is the DFK's task-conservation account. Its invariant holds
// under any fault schedule: every submitted task reaches exactly one
// terminal state, exactly once. It keeps plain counts — submissions,
// and terminal outcomes by status — so it costs nothing per task; only
// a violation is recorded by task ID.
type Ledger struct {
	submitted int
	outcomes  [TaskShed + 1]int
	// twice lists, once per extra finish, the IDs of tasks finished
	// more than once.
	twice []int
}

// Submitted reports how many tasks were submitted.
func (l *Ledger) Submitted() int { return l.submitted }

// Terminal reports how many tasks reached a terminal state.
func (l *Ledger) Terminal() int {
	n := 0
	for _, k := range l.outcomes {
		n += k
	}
	return n
}

// Outcomes tallies terminal outcomes by status name ("done", "failed",
// "shed"), leaving out the statuses no task ended in.
func (l *Ledger) Outcomes() map[string]int {
	out := make(map[string]int)
	for _, s := range terminalStatuses {
		if n := l.outcomes[s]; n > 0 {
			out[s.String()] = n
		}
	}
	return out
}

// Err returns nil when the invariant held; call it once the simulation
// has drained. Otherwise it reports how many tasks never reached a
// terminal state and which reached one more than once. A nil Ledger (a
// run with no DFK) always holds.
func (l *Ledger) Err() error {
	if l == nil {
		return nil
	}
	var msgs []string
	if lost := l.submitted - l.Terminal(); lost > 0 {
		msgs = append(msgs, fmt.Sprintf("%d of %d submitted tasks never reached a terminal state", lost, l.submitted))
	}
	for _, id := range l.twice {
		msgs = append(msgs, fmt.Sprintf("task %d reached a terminal state twice", id))
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("faas: task ledger violated:\n  %s", strings.Join(msgs, "\n  "))
}
