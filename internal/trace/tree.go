package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// SpanNode is one reconstructed span: its identity, timing, the goroutine it
// ran on, the annotation events recorded while it was current, and its
// children ordered by begin time.
type SpanNode struct {
	ID     SpanID
	Parent SpanID
	Name   string // span kind: "invoke", "run", "request", ...
	Target string
	Gid    uint64    // goroutine the span began on
	Start  time.Time // OpSpanBegin time (zero if the begin fell out of the ring)
	End    time.Time // OpSpanEnd time (zero if still open or lost)
	// Enqueued is the OpEnqueue time for dispatched-task spans (zero
	// otherwise); Start-Enqueued is the queue sojourn.
	Enqueued time.Time
	// Events are the annotation ops (OpInvoke, OpPost, OpHelped, ...)
	// recorded against this span, in ring order.
	Events   []Event
	Children []*SpanNode
}

// Duration returns End-Start (0 while the span is open or truncated).
func (n *SpanNode) Duration() time.Duration {
	if n.Start.IsZero() || n.End.IsZero() {
		return 0
	}
	return n.End.Sub(n.Start)
}

// QueueDelay returns Start-Enqueued for dispatched spans (0 otherwise).
func (n *SpanNode) QueueDelay() time.Duration {
	if n.Enqueued.IsZero() || n.Start.IsZero() {
		return 0
	}
	return n.Start.Sub(n.Enqueued)
}

// HasOp reports whether an annotation with the given op was recorded on this
// span.
func (n *SpanNode) HasOp(op Op) bool {
	for _, e := range n.Events {
		if e.Op == op {
			return true
		}
	}
	return false
}

// CountOp returns the number of annotations with the given op on this span.
func (n *SpanNode) CountOp(op Op) int {
	c := 0
	for _, e := range n.Events {
		if e.Op == op {
			c++
		}
	}
	return c
}

// Child returns the first child with the given span kind (and, when target
// is non-empty, that target), or nil.
func (n *SpanNode) Child(name, target string) *SpanNode {
	for _, c := range n.Children {
		if c.Name == name && (target == "" || c.Target == target) {
			return c
		}
	}
	return nil
}

// Tree is the reconstructed span forest of one trace capture.
type Tree struct {
	// Roots are the spans with no (captured) parent, ordered by begin.
	Roots []*SpanNode
	// ByID indexes every captured span.
	ByID map[SpanID]*SpanNode
	// Orphans are annotation events that carried a span id whose begin was
	// not captured (ring wraparound), kept for diagnosis.
	Orphans []Event
}

// Find returns the first span (pre-order over roots) with the given kind
// and, when target is non-empty, that target. Nil if none.
func (t *Tree) Find(name, target string) *SpanNode {
	var walk func(n *SpanNode) *SpanNode
	walk = func(n *SpanNode) *SpanNode {
		if n.Name == name && (target == "" || n.Target == target) {
			return n
		}
		for _, c := range n.Children {
			if m := walk(c); m != nil {
				return m
			}
		}
		return nil
	}
	for _, r := range t.Roots {
		if m := walk(r); m != nil {
			return m
		}
	}
	return nil
}

// FindAll returns every span with the given kind (and target, when
// non-empty), pre-order.
func (t *Tree) FindAll(name, target string) []*SpanNode {
	var out []*SpanNode
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		if n.Name == name && (target == "" || n.Target == target) {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	return out
}

// Depth returns the maximum nesting depth of the forest (0 when empty).
func (t *Tree) Depth() int {
	var walk func(n *SpanNode) int
	walk = func(n *SpanNode) int {
		d := 1
		for _, c := range n.Children {
			if cd := 1 + walk(c); cd > d {
				d = cd
			}
		}
		return d
	}
	max := 0
	for _, r := range t.Roots {
		if d := walk(r); d > max {
			max = d
		}
	}
	return max
}

// BuildTree reconstructs the span forest from a flat event slice (typically
// Buffer.Snapshot()). Spans whose parent was not captured become roots;
// annotation events whose span begin fell off the ring are collected in
// Orphans. Children and roots are ordered by begin time (falling back to
// ring order for spans without a captured begin).
//
// A dispatched task's parent is its enqueue's parent — the submitter's span —
// when that is nonzero, and otherwise its begin's — the runner's current span,
// which is the awaiting invoke when a helper runs the task inside a barrier —
// whichever of the two events comes first in the slice.
func BuildTree(events []Event) *Tree {
	t := &Tree{ByID: make(map[SpanID]*SpanNode)}
	// spawned holds the spans whose parent an enqueue has set, so a begin
	// later in the slice does not overwrite it.
	spawned := make(map[SpanID]bool)
	node := func(id SpanID) *SpanNode {
		n := t.ByID[id]
		if n == nil {
			n = &SpanNode{ID: id}
			t.ByID[id] = n
		}
		return n
	}
	for _, e := range events {
		if e.Span == 0 {
			continue
		}
		switch e.Op {
		case OpSpanBegin:
			n := node(e.Span)
			if !spawned[e.Span] {
				n.Parent = e.Parent
			}
			n.Name = e.Name
			n.Target = e.Target
			n.Gid = e.Gid
			n.Start = e.Time
		case OpSpanEnd:
			n := node(e.Span)
			n.End = e.Time
			if n.Name == "" {
				n.Name = e.Name
				n.Target = e.Target
			}
		case OpEnqueue:
			n := node(e.Span)
			n.Enqueued = e.Time
			if e.Parent != 0 {
				n.Parent = e.Parent
				spawned[e.Span] = true
			}
			if n.Target == "" {
				n.Target = e.Target
			}
		default:
			if t.ByID[e.Span] == nil {
				t.Orphans = append(t.Orphans, e)
				continue
			}
			n := node(e.Span)
			n.Events = append(n.Events, e)
		}
	}
	for _, n := range t.ByID {
		if n.Parent != 0 {
			if p := t.ByID[n.Parent]; p != nil {
				p.Children = append(p.Children, n)
				continue
			}
		}
		t.Roots = append(t.Roots, n)
	}
	byStart := func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool {
			a, b := ns[i], ns[j]
			if a.Start.IsZero() || b.Start.IsZero() || a.Start.Equal(b.Start) {
				return a.ID < b.ID
			}
			return a.Start.Before(b.Start)
		})
	}
	byStart(t.Roots)
	for _, n := range t.ByID {
		byStart(n.Children)
	}
	return t
}

// String renders the forest as an indented tree, one span per line with its
// timing and annotation ops — the text view of the spans that a Go execution
// trace (StartFile) shows per goroutine.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *SpanNode, depth int)
	walk = func(n *SpanNode, depth int) {
		fmt.Fprintf(&b, "%s%s", strings.Repeat("  ", depth), n.Name)
		if n.Target != "" {
			fmt.Fprintf(&b, "(%s)", n.Target)
		}
		fmt.Fprintf(&b, " span=%d g%d", n.ID, n.Gid)
		if d := n.Duration(); d > 0 {
			fmt.Fprintf(&b, " dur=%v", d.Round(time.Microsecond))
		}
		if q := n.QueueDelay(); q > 0 {
			fmt.Fprintf(&b, " queued=%v", q.Round(time.Microsecond))
		}
		if len(n.Events) > 0 {
			ops := make([]string, len(n.Events))
			for i, e := range n.Events {
				ops[i] = e.Op.String()
			}
			fmt.Fprintf(&b, " [%s]", strings.Join(ops, " "))
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		walk(r, 0)
	}
	return b.String()
}

// Summarize renders aggregate statistics of the forest: span counts and
// total durations by kind/target, plus depth — the cmd/report view.
func (t *Tree) Summarize() string {
	type agg struct {
		count int
		total time.Duration
		queue time.Duration
	}
	keys := make([]string, 0)
	aggs := make(map[string]*agg)
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		key := n.Name
		if n.Target != "" {
			key += "(" + n.Target + ")"
		}
		a := aggs[key]
		if a == nil {
			a = &agg{}
			aggs[key] = a
			keys = append(keys, key)
		}
		a.count++
		a.total += n.Duration()
		a.queue += n.QueueDelay()
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "spans=%d roots=%d depth=%d orphans=%d\n",
		len(t.ByID), len(t.Roots), t.Depth(), len(t.Orphans))
	for _, k := range keys {
		a := aggs[k]
		fmt.Fprintf(&b, "%-24s n=%-6d total=%-12v avg-queued=%v\n",
			k, a.count, a.total.Round(time.Microsecond), (a.queue / time.Duration(a.count)).Round(time.Microsecond))
	}
	return b.String()
}
