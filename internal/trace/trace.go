// Package trace is a lightweight execution tracer for the virtual-target
// runtime: a fixed-capacity ring buffer of typed events (target-block
// invocations, dispatch decisions, waits) that costs little when enabled
// and nothing when no sink is installed. The runtime's debugging story —
// "why did this block run inline?", "how long did the EDT pump?" — reads
// straight out of a trace dump, and tests use traces to assert scheduling
// decisions that are otherwise invisible.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Op is the traced operation kind.
type Op int

// Operation kinds recorded by the runtime.
const (
	// OpInvoke is a target-block invocation (Algorithm 1 entry).
	OpInvoke Op = iota
	// OpInline marks thread-context awareness: the block ran synchronously
	// because the caller already belonged to the target.
	OpInline
	// OpPost marks an asynchronous submission to the target's queue.
	OpPost
	// OpWait marks a blocking join (default mode or wait clause).
	OpWait
	// OpAwaitEnter and OpAwaitExit bracket the logical barrier.
	OpAwaitEnter
	OpAwaitExit
	// OpHelped marks one task run by an awaiting thread (help-first).
	OpHelped
	// OpShed marks work refused by admission control: an HTTP request
	// that found its wait queue full or whose deadline passed while it
	// waited for a worker slot, or a connection over netloop's cap.
	OpShed
	// OpDeadline marks a target block cancelled by its context deadline
	// while still queued (it never ran; its Completion carries
	// context.DeadlineExceeded).
	OpDeadline
	// OpRestart marks a supervised pool scheduling the respawn of a worker
	// that crashed.
	OpRestart
	// OpStall marks a watchdog flagging a registered loop or pool as
	// stalled: its heartbeat probe did not complete within the threshold
	// (queue not draining, EDT blocked, or all workers dead).
	OpStall
	// OpTargetDown marks a supervised pool exhausting its restart budget:
	// it goes down, and what was queued and every later post fail fast
	// with executor.ErrTargetDown.
	OpTargetDown
	// OpSpanBegin and OpSpanEnd bracket a causal span (see SpanID): the
	// event's Span, Parent and Name fields identify the span, its causal
	// parent, and its kind ("invoke", "run", "request", ...). Begin and
	// end carry the span's timestamps; every other op recorded while the
	// span is current is an annotation on it.
	OpSpanBegin
	OpSpanEnd
	// OpEnqueue marks a task entering an executor's queue. It shares its
	// Span with the eventual run span, so a Go execution trace task can
	// cover queue plus run time and metrics can derive queue sojourn (run
	// begin minus enqueue).
	OpEnqueue
	// OpConnDeadline marks a reactor connection closed by a deadline
	// (idle, read, or write-stall) — the slowloris defence firing.
	OpConnDeadline
)

var opNames = [...]string{
	OpInvoke: "invoke", OpInline: "inline", OpPost: "post", OpWait: "wait",
	OpAwaitEnter: "await-enter", OpAwaitExit: "await-exit", OpHelped: "helped",
	OpShed: "shed", OpDeadline: "deadline", OpRestart: "restart", OpStall: "stall",
	OpTargetDown: "target-down", OpSpanBegin: "span-begin", OpSpanEnd: "span-end",
	OpEnqueue: "enqueue", OpConnDeadline: "conn-deadline",
}

// String names the op.
func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Event is one trace record.
type Event struct {
	Seq    uint64
	Time   time.Time
	Op     Op
	Target string // virtual target name, when applicable
	Mode   string // scheduling mode spelling, when applicable
	Gid    uint64 // goroutine id of the actor
	Span   SpanID // span this event belongs to (0 = none)
	Parent SpanID // causal parent span (begin/enqueue events only)
	Name   string // span kind ("invoke", "run", ...) on span-lifecycle events
}

// String renders the event as one log line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6d %s g%-5d %-12s", e.Seq, e.Time.Format("15:04:05.000000"), e.Gid, e.Op)
	if e.Name != "" {
		fmt.Fprintf(&b, " name=%s", e.Name)
	}
	if e.Target != "" {
		fmt.Fprintf(&b, " target=%s", e.Target)
	}
	if e.Mode != "" {
		fmt.Fprintf(&b, " mode=%s", e.Mode)
	}
	if e.Span != 0 {
		fmt.Fprintf(&b, " span=%d", e.Span)
	}
	if e.Parent != 0 {
		fmt.Fprintf(&b, " parent=%d", e.Parent)
	}
	return b.String()
}

// Buffer is a concurrency-safe ring buffer of events.
type Buffer struct {
	mu     sync.Mutex
	events []Event
	next   int
	full   bool
	seq    uint64 // guarded by mu: sequence and ring position must advance together
}

// NewBuffer returns a ring holding the last cap events (cap < 16 is
// clamped to 16).
func NewBuffer(capacity int) *Buffer {
	if capacity < 16 {
		capacity = 16
	}
	return &Buffer{events: make([]Event, capacity)}
}

// Record appends an event, overwriting the oldest when full.
//
// Seq is assigned under the ring mutex: sequence numbers and ring positions
// must advance together, or two concurrent recorders could store their
// events in the opposite order from their Seqs and Snapshot/Dump would
// render a misordered history.
func (b *Buffer) Record(e Event) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	b.mu.Lock()
	b.seq++
	e.Seq = b.seq
	b.events[b.next] = e
	b.next++
	if b.next == len(b.events) {
		b.next = 0
		b.full = true
	}
	b.mu.Unlock()
}

// Len returns the number of retained events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.full {
		return len(b.events)
	}
	return b.next
}

// Snapshot returns the retained events oldest first.
func (b *Buffer) Snapshot() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	if b.full {
		out = append(out, b.events[b.next:]...)
	}
	out = append(out, b.events[:b.next]...)
	return out
}

// Dump renders the retained events one per line.
func (b *Buffer) Dump() string {
	var sb strings.Builder
	for _, e := range b.Snapshot() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CountOp returns how many retained events have the given op.
func (b *Buffer) CountOp(op Op) int {
	n := 0
	for _, e := range b.Snapshot() {
		if e.Op == op {
			n++
		}
	}
	return n
}

// Reset clears the buffer.
func (b *Buffer) Reset() {
	b.mu.Lock()
	b.next = 0
	b.full = false
	b.mu.Unlock()
}

// Sink receives events; Buffer implements it, and tests may provide
// their own.
type Sink interface {
	Record(Event)
}

var _ Sink = (*Buffer)(nil)
