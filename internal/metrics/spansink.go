package metrics

import (
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// TargetMetrics aggregates one virtual target's span-derived measurements.
type TargetMetrics struct {
	// Invoke is the latency histogram of non-run spans on this target:
	// directive invocations ("invoke"), HTTP requests ("request"), netloop
	// receives ("recv") — the caller-side view.
	Invoke BucketHistogram
	// Run is the latency histogram of "run" spans: time a task occupied a
	// worker or the EDT.
	Run BucketHistogram
	// Sojourn is the enqueue→run-begin queue wait distribution.
	Sojourn BucketHistogram

	// Scheduling-decision and incident counters, from the Op taxonomy.
	Posts     Counter // OpPost: asynchronous submissions
	Inlines   Counter // OpInline: thread-context-aware inline runs
	Helped    Counter // OpHelped: tasks run inside an await barrier
	Sheds     Counter // OpShed: rejected by admission control
	Deadlines Counter // OpDeadline: cancelled while queued
	Restarts  Counter // OpRestart: supervised restarts
	Stalls    Counter // OpStall: watchdog stall flags

	ConnDeadlines Counter // OpConnDeadline: reactor connections reaped by deadline
}

// maxOpenSpans bounds the SpanSink's open-span table. A span that never ends
// (a stuck task, or an end event racing a snapshot) must not leak table
// entries forever; past the bound new spans are dropped from metrics (their
// trace events still flow to the chained sink) and counted.
const maxOpenSpans = 1 << 16

// openSpan is the begin/enqueue state held until a span's end arrives.
type openSpan struct {
	begin    time.Time
	enqueued time.Time
	name     string
	target   string
}

// SpanSink is a trace.Sink that folds the span event stream into per-target
// histograms and counters — the bridge from causal tracing to /metrics. It
// can chain to a next sink (a test's trace.Buffer, or the Go execution trace
// sink `-trace` installs), so one stream feeds both the Prometheus endpoint
// and that capture.
type SpanSink struct {
	next trace.Sink // may be nil

	// mu guards the two tables; the metrics a target's entry points to are
	// atomic and need no lock.
	mu      sync.Mutex
	targets map[string]*TargetMetrics
	open    map[trace.SpanID]openSpan

	dropped Counter // spans not measured because the open table was full
}

// NewSpanSink returns a sink aggregating into fresh per-target metrics,
// forwarding every event to next (nil for no forwarding).
func NewSpanSink(next trace.Sink) *SpanSink {
	return &SpanSink{
		next:    next,
		targets: make(map[string]*TargetMetrics),
		open:    make(map[trace.SpanID]openSpan),
	}
}

// Record implements trace.Sink.
func (s *SpanSink) Record(e trace.Event) {
	if e.Time.IsZero() {
		// Emission helpers leave stamping to the sink; stamp before the
		// chained sink sees it too, so both views agree on timestamps.
		e.Time = time.Now()
	}
	s.record(e)
	if s.next != nil {
		s.next.Record(e)
	}
}

func (s *SpanSink) record(e trace.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Op {
	case trace.OpEnqueue:
		o, ok := s.open[e.Span]
		if !ok && len(s.open) >= maxOpenSpans {
			s.dropped.Inc()
			return
		}
		o.enqueued = e.Time
		if o.target == "" {
			o.target = e.Target
		}
		s.open[e.Span] = o
	case trace.OpSpanBegin:
		o, ok := s.open[e.Span]
		if !ok && len(s.open) >= maxOpenSpans {
			s.dropped.Inc()
			return
		}
		o.begin = e.Time
		o.name = e.Name
		o.target = e.Target
		s.open[e.Span] = o
		if !o.enqueued.IsZero() {
			if d := e.Time.Sub(o.enqueued); d >= 0 {
				s.targetLocked(o.target).Sojourn.Observe(d)
			}
		}
	case trace.OpSpanEnd:
		o, ok := s.open[e.Span]
		if !ok {
			return
		}
		delete(s.open, e.Span)
		if o.begin.IsZero() {
			return
		}
		d := e.Time.Sub(o.begin)
		if d < 0 {
			return
		}
		tm := s.targetLocked(o.target)
		if o.name == "run" {
			tm.Run.Observe(d)
		} else {
			tm.Invoke.Observe(d)
		}
	case trace.OpPost:
		s.targetLocked(e.Target).Posts.Inc()
	case trace.OpInline:
		s.targetLocked(e.Target).Inlines.Inc()
	case trace.OpHelped:
		s.targetLocked(e.Target).Helped.Inc()
	case trace.OpShed:
		s.targetLocked(e.Target).Sheds.Inc()
	case trace.OpDeadline:
		s.targetLocked(e.Target).Deadlines.Inc()
	case trace.OpRestart:
		s.targetLocked(e.Target).Restarts.Inc()
	case trace.OpStall:
		s.targetLocked(e.Target).Stalls.Inc()
	case trace.OpConnDeadline:
		s.targetLocked(e.Target).ConnDeadlines.Inc()
	}
}

func (s *SpanSink) targetLocked(name string) *TargetMetrics {
	tm := s.targets[name]
	if tm == nil {
		tm = &TargetMetrics{}
		s.targets[name] = tm
	}
	return tm
}

// Target returns the metrics aggregated for one target (nil if never seen).
func (s *SpanSink) Target(name string) *TargetMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.targets[name]
}

// Open returns how many spans are currently open (begun or enqueued, not yet
// ended).
func (s *SpanSink) Open() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.open)
}

// Dropped returns how many spans were not measured because the open-span
// table was full.
func (s *SpanSink) Dropped() int64 { return s.dropped.Value() }

// snapshotTargets returns the target names sorted plus a shallow copy of the
// map, so WritePrometheus iterates without holding the sink lock across I/O.
func (s *SpanSink) snapshotTargets() (names []string, targets map[string]*TargetMetrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	targets = make(map[string]*TargetMetrics, len(s.targets))
	for n, tm := range s.targets {
		names = append(names, n)
		targets[n] = tm
	}
	sort.Strings(names)
	return names, targets
}

// WritePrometheus writes every aggregated family in the Prometheus text
// exposition format: one series per target, families grouped as the format
// requires.
func (s *SpanSink) WritePrometheus(w io.Writer) error {
	names, targets := s.snapshotTargets()
	e := NewPromEncoder(w)

	hist := func(metric, help string, pick func(*TargetMetrics) *BucketHistogram) {
		for _, n := range names {
			e.Histogram(metric, help, Labels{"target": n}, pick(targets[n]))
		}
	}
	hist("repro_invoke_duration_seconds",
		"Directive invocation latency per virtual target (invoke/request/recv spans).",
		func(t *TargetMetrics) *BucketHistogram { return &t.Invoke })
	hist("repro_run_duration_seconds",
		"Task run latency per virtual target (run spans).",
		func(t *TargetMetrics) *BucketHistogram { return &t.Run })
	hist("repro_queue_sojourn_seconds",
		"Queue wait from enqueue to run begin per virtual target.",
		func(t *TargetMetrics) *BucketHistogram { return &t.Sojourn })

	counter := func(metric, help string, pick func(*TargetMetrics) *Counter) {
		for _, n := range names {
			e.Counter(metric, help, Labels{"target": n}, float64(pick(targets[n]).Value()))
		}
	}
	counter("repro_posts_total", "Asynchronous dispatches per target.",
		func(t *TargetMetrics) *Counter { return &t.Posts })
	counter("repro_inline_total", "Thread-context-aware inline runs per target.",
		func(t *TargetMetrics) *Counter { return &t.Inlines })
	counter("repro_helped_total", "Tasks helped inside await barriers per target.",
		func(t *TargetMetrics) *Counter { return &t.Helped })
	counter("repro_shed_total", "Invocations shed by admission control per target.",
		func(t *TargetMetrics) *Counter { return &t.Sheds })
	counter("repro_deadline_total", "Queued invocations cancelled by deadline per target.",
		func(t *TargetMetrics) *Counter { return &t.Deadlines })
	counter("repro_restarts_total", "Supervised restarts per target.",
		func(t *TargetMetrics) *Counter { return &t.Restarts })
	counter("repro_stalls_total", "Watchdog stall detections per target.",
		func(t *TargetMetrics) *Counter { return &t.Stalls })
	counter("repro_conn_deadline_total", "Reactor connections reaped by idle/read/write-stall deadlines per target.",
		func(t *TargetMetrics) *Counter { return &t.ConnDeadlines })

	e.Gauge("repro_spans_open", "Spans currently open (begun or enqueued, not ended).",
		nil, float64(s.Open()))
	e.Counter("repro_spans_dropped_total",
		"Spans not measured because the open-span table was full.",
		nil, float64(s.Dropped()))
	return e.Err()
}

var _ trace.Sink = (*SpanSink)(nil)
