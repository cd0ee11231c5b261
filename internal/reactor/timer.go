package reactor

import (
	"container/heap"
	"sync/atomic"
	"time"
)

// The reactor's timers are poll-goroutine state: a min-heap ordered by fire
// time whose head sets the poll wait's timeout, so deadlines cost zero extra
// goroutines — the same thread that dispatches readiness dispatches time.
// Cancellation is a flag, not a heap fixup: a cancelled entry is skipped
// when it surfaces, which keeps cancel safe from any goroutine without
// locking the heap.

// timerEntry is one scheduled callback. when and seq are written on the
// poll goroutine before the entry enters the heap; cancelled may be set
// from any goroutine.
type timerEntry struct {
	when      time.Time
	seq       uint64 // insertion order breaks ties for deterministic firing
	fn        func()
	cancelled atomic.Bool
}

// timerHeap is a min-heap of timer entries by fire time (container/heap).
type timerHeap []*timerEntry

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].when.Equal(h[j].when) {
		return h[i].seq < h[j].seq
	}
	return h[i].when.Before(h[j].when)
}

func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *timerHeap) Push(x any) { *h = append(*h, x.(*timerEntry)) }

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// addTimer schedules fn at `at`. Poll-goroutine only.
func (r *Reactor) addTimer(at time.Time, fn func()) *timerEntry {
	e := &timerEntry{when: at, seq: r.timerSeq, fn: fn}
	r.timerSeq++
	heap.Push(&r.timers, e)
	return e
}

// nextTimerMs returns the poll wait timeout in milliseconds: -1 with no
// armed timers (block indefinitely), otherwise the time to the earliest
// live entry, rounded up so a timer never fires early. Cancelled heads are
// discarded here so a storm of cancellations cannot pin the timeout at 0.
// Poll-goroutine only.
func (r *Reactor) nextTimerMs() int {
	for len(r.timers) > 0 && r.timers[0].cancelled.Load() {
		heap.Pop(&r.timers)
	}
	if len(r.timers) == 0 {
		return -1
	}
	d := time.Until(r.timers[0].when)
	if d <= 0 {
		return 0
	}
	return int((d + time.Millisecond - 1) / time.Millisecond)
}

// fireTimers runs every due, uncancelled timer. Callbacks run contained
// (a panic in one closes nothing but is counted and recovered) and may
// re-arm timers; entries they add for a past instant fire in this same
// sweep. Poll-goroutine only.
func (r *Reactor) fireTimers() {
	r.san.Check("fireTimers on", r.name)
	now := time.Now()
	for len(r.timers) > 0 {
		top := r.timers[0]
		if top.cancelled.Load() {
			heap.Pop(&r.timers)
			continue
		}
		if top.when.After(now) {
			return
		}
		heap.Pop(&r.timers)
		r.contain(nil, top.fn)
	}
}

// PostAt schedules fn to run on the poll goroutine at `at` (immediately if
// `at` has passed). It returns a cancel function — safe from any goroutine,
// a no-op once fn has started — and ErrClosed after Stop. Like every
// reactor callback, fn must not block; it may arm further timers.
func (r *Reactor) PostAt(at time.Time, fn func()) (cancel func(), err error) {
	e := &timerEntry{when: at, fn: fn}
	arm := func() {
		e.seq = r.timerSeq
		r.timerSeq++
		heap.Push(&r.timers, e)
	}
	if r.Owns() {
		arm()
	} else if err := r.Post(arm); err != nil {
		return nil, err
	}
	return func() { e.cancelled.Store(true) }, nil
}
