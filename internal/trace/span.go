package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gid"
)

// SpanID identifies one causal span. The zero value means "no span".
//
// A span is one unit of attributable work in the virtual-target runtime:
// an Invoke call (from directive entry to return), one task run on a worker
// or EDT, a helped task inside an await barrier, an HTTP request, a netloop
// message. Spans carry a parent link, so the flat event ring reconstructs
// into a tree (see BuildTree): an Invoke that posts to a worker whose block
// awaits a second target shows up as
//
//	invoke(worker) ── run(worker) ── invoke(worker2) ── run(worker2)
//
// with each run on its own goroutine track.
type SpanID uint64

var spanCounter atomic.Uint64

// NewSpanID allocates a fresh process-unique span id (never 0).
func NewSpanID() SpanID { return SpanID(spanCounter.Add(1)) }

// ---------------------------------------------------------------------------
// Current-span registry.
//
// Go has no goroutine-locals, but the runtime already recovers a stable
// goroutine identity (package gid, ~3ns on amd64/arm64). The active span of
// each traced goroutine lives in a small sharded map keyed by that id; the
// dispatch layers Swap the task's span in around the task body, which is how
// a parent crosses the asynchronous Post boundary: the producer's current
// span is captured at enqueue time, and the consumer's current span is set
// for the duration of the run, so nested Invokes parent correctly however
// deep the chain goes.
//
// The registry is only touched while a trace sink is installed; the untraced
// hot path never takes these locks.
// ---------------------------------------------------------------------------

const spanShards = 64 // power of two

type spanShard struct {
	mu sync.Mutex
	m  map[gid.ID]SpanID
}

var currentSpans [spanShards]spanShard

func init() {
	for i := range currentSpans {
		currentSpans[i].m = make(map[gid.ID]SpanID)
	}
}

func shardFor(g gid.ID) *spanShard {
	return &currentSpans[uint64(g)&(spanShards-1)]
}

// Current returns the calling goroutine's active span (0 if none).
func Current() SpanID {
	g := gid.Current()
	s := shardFor(g)
	s.mu.Lock()
	id := s.m[g]
	s.mu.Unlock()
	return id
}

// Swap installs id as the calling goroutine's active span and returns the
// previous one. Swapping in 0 clears the entry (goroutines must not leave
// stale affiliations behind — worker goroutines are long-lived, but helped
// and inline runs happen on arbitrary callers).
func Swap(id SpanID) SpanID {
	g := gid.Current()
	s := shardFor(g)
	s.mu.Lock()
	prev := s.m[g]
	if id == 0 {
		delete(s.m, g)
	} else {
		s.m[g] = id
	}
	s.mu.Unlock()
	return prev
}

// ---------------------------------------------------------------------------
// Global sink.
//
// The runtime's dispatch layers (executor.WorkerPool, eventloop.Loop,
// netloop.Server) have no back-pointer to a core.Runtime, so every event —
// core's scheduling decisions, the layers' spans, admission/supervise incidents —
// is recorded against one process-global sink. That is how a single Buffer
// captures a complete cross-layer trace: install it with SetGlobal (or Use,
// which restores the previous sink) and every layer's events land in one
// ring.
// ---------------------------------------------------------------------------

var globalSink atomic.Pointer[Sink]

// SetGlobal installs s as the process-global trace sink (nil disables).
func SetGlobal(s Sink) {
	if s == nil {
		globalSink.Store(nil)
		return
	}
	globalSink.Store(&s)
}

// ActiveSink returns the process-global sink, or nil if tracing is off.
// Dispatch hot paths gate all span work on one atomic load here.
func ActiveSink() Sink {
	p := globalSink.Load()
	if p == nil {
		return nil
	}
	return *p
}

// Emit records a bare incident event (a shed, a restart, a stall) for target
// against the active sink, stamped with the wall clock. It is inert when
// tracing is off, so emitters need no sink of their own: whatever feeds
// /metrics or a test Buffer sees every layer's incidents.
func Emit(op Op, target string) {
	if s := ActiveSink(); s != nil {
		s.Record(Event{Time: time.Now(), Op: op, Target: target})
	}
}

// Use installs s as the global sink and returns a function restoring the
// previous one — the test/bench idiom:
//
//	defer trace.Use(buf)()
func Use(s Sink) func() {
	prev := globalSink.Load()
	SetGlobal(s)
	return func() { globalSink.Store(prev) }
}

// ---------------------------------------------------------------------------
// Emission helpers.
// ---------------------------------------------------------------------------

// BeginSpan allocates a span, records its OpSpanBegin against s, and returns
// the id. name is the span kind ("invoke", "run", "request", ...), target
// the virtual-target name it concerns, parent its causal parent (0 = root).
func BeginSpan(s Sink, name, target string, parent SpanID) SpanID {
	id := NewSpanID()
	BeginSpanID(s, id, name, target, parent)
	return id
}

// BeginSpanID records OpSpanBegin for a pre-allocated id. The dispatch
// queues pre-allocate task spans at enqueue time (so the OpEnqueue event and
// the later run share one id, and queue time is measurable) and begin them
// when the task actually runs. For such a span parent is the runner's
// current span, and the submitter's is on the OpEnqueue event: BuildTree
// takes the enqueue's parent when it is nonzero, so a raw begin's parent is
// the causal one only for a task whose submitter had no span.
func BeginSpanID(s Sink, id SpanID, name, target string, parent SpanID) {
	s.Record(Event{Op: OpSpanBegin, Name: name, Target: target, Span: id, Parent: parent, Gid: uint64(gid.Current())})
}

// EndSpan records OpSpanEnd for id.
func EndSpan(s Sink, id SpanID, name, target string) {
	s.Record(Event{Op: OpSpanEnd, Name: name, Target: target, Span: id, Gid: uint64(gid.Current())})
}

// Scope is one open span that is also the calling goroutine's current span:
// the open/Swap/close half of the dispatch bracket (DESIGN.md §12), used
// wherever work is caused on the calling goroutine rather than run as a
// queued task — an invoke, a network receive, an HTTP request, a readiness
// event. Everything posted or invoked between Open and Close parents to it.
// The zero Scope is inert, so a caller need not test for a sink itself.
type Scope struct {
	sink         Sink
	id, prev     SpanID
	name, target string
}

// Open begins a name/target span on s as a child of the goroutine's current
// span and makes it current. A nil s returns the inert Scope.
func Open(s Sink, name, target string) Scope {
	if s == nil {
		return Scope{}
	}
	id := NewSpanID()
	prev := Swap(id)
	BeginSpanID(s, id, name, target, prev)
	return Scope{sink: s, id: id, prev: prev, name: name, target: target}
}

// Close restores the span that was current at Open, then ends this one. It
// must run on the goroutine that called Open.
func (sc Scope) Close() {
	if sc.sink == nil {
		return
	}
	Swap(sc.prev)
	EndSpan(sc.sink, sc.id, sc.name, sc.target)
}

// Enqueue records OpEnqueue: the task identified by span id entered target's
// queue, caused by parent. The Go execution trace sink opens the span's task
// here, so the task covers queue time; metrics derive queue sojourn from this
// event and the span's begin, and BuildTree the span's parent when parent is
// nonzero.
func Enqueue(s Sink, id SpanID, target string, parent SpanID) {
	s.Record(Event{Op: OpEnqueue, Name: "enqueue", Target: target, Span: id, Parent: parent, Gid: uint64(gid.Current())})
}
