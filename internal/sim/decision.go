package sim

import (
	"fmt"
	"strings"
	"time"
)

// A Decision records one choice the deterministic simulation scheduler made:
// which task to run, which queued task a helping thread popped, or which
// timer batch to fire after advancing the virtual clock.
// The sequence of decisions *is* the schedule — replaying the same seed must
// reproduce the same decision log byte for byte, which is what makes a
// failing exploration run a permanent regression test.
//
// Decisions deliberately carry no wall-clock times, goroutine ids, pointers
// or other process-varying values: every field is a pure function of the
// seed and the program under simulation.
type Decision struct {
	// Step is the 0-based scheduler step this decision was taken at.
	Step int
	// Kind is the decision class: "run" (scheduler picked a runnable task),
	// "help" (a thread in the await logical barrier popped pending work),
	// or "timer" (virtual clock advanced and a timer fired).
	Kind string
	// Target is the simulated executor (or timer owner) the decision chose.
	Target string
	// Seq is the chosen task's (or timer's) global submission sequence
	// number — stable identity across runs of the same schedule.
	Seq uint64
	// Alts is how many alternatives the scheduler chose among at this
	// point (1 means the step was forced; >1 means a genuine branch the
	// explorer can perturb).
	Alts int
	// Virt is the virtual-clock reading when the decision was taken.
	Virt time.Duration
}

// String renders the decision as one stable line of the decision trace.
func (d Decision) String() string {
	return fmt.Sprintf("%05d %-5s %s#%d alts=%d t=%s", d.Step, d.Kind, d.Target, d.Seq, d.Alts, d.Virt)
}

// DecisionLog accumulates the scheduler's decisions for one simulation run.
// It is not goroutine-safe: the simulation executor is single-threaded by
// construction, and that is the only writer.
type DecisionLog struct {
	ds []Decision
}

// Append records one decision.
func (l *DecisionLog) Append(d Decision) { l.ds = append(l.ds, d) }

// Len returns the number of recorded decisions.
func (l *DecisionLog) Len() int { return len(l.ds) }

// Branches returns how many recorded decisions had more than one
// alternative — the number of points where a different schedule could have
// diverged. Explorers use it to gauge how much nondeterminism a scenario
// actually exposes.
func (l *DecisionLog) Branches() int {
	n := 0
	for _, d := range l.ds {
		if d.Alts > 1 {
			n++
		}
	}
	return n
}

// String renders the full decision trace, one line per decision. Two runs
// of the same seed over the same program must produce identical strings.
func (l *DecisionLog) String() string {
	var b strings.Builder
	for _, d := range l.ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Reset clears the log for reuse.
func (l *DecisionLog) Reset() { l.ds = l.ds[:0] }
