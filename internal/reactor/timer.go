package reactor

import (
	"container/heap"
	"time"
)

// The reactor's timers are poll-goroutine state: a min-heap ordered by fire
// time whose head sets the poll wait's timeout, so deadlines cost zero extra
// goroutines — the same thread that dispatches readiness dispatches time.
// Its two users are the idle-deadline check (deadlineCheck) and Drain's
// force-close; neither cancels a timer, so an entry leaves the heap only by
// firing.

// timerEntry is one scheduled callback.
type timerEntry struct {
	when time.Time
	seq  uint64 // insertion order breaks ties for deterministic firing
	fn   func()
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

// addTimer schedules fn to run on the poll goroutine at `at` (on the next
// loop turn if `at` has passed). Like every reactor callback, fn must not
// block; it may arm further timers. Poll-goroutine only.
func (r *Reactor) addTimer(at time.Time, fn func()) {
	heap.Push(&r.timers, &timerEntry{when: at, seq: r.timerSeq, fn: fn})
	r.timerSeq++
}

// nextTimerMs returns the poll wait timeout in milliseconds: -1 with no
// armed timers (block indefinitely), otherwise the time to the earliest
// entry, rounded up so a timer never fires early. Poll-goroutine only.
func (r *Reactor) nextTimerMs() int {
	if len(r.timers) == 0 {
		return -1
	}
	d := time.Until(r.timers[0].when)
	if d <= 0 {
		return 0
	}
	return int((d + time.Millisecond - 1) / time.Millisecond)
}

// fireTimers runs every due timer. Callbacks run contained
// (a panic in one closes nothing but is counted and recovered) and may
// re-arm timers; entries they add for a past instant fire in this same
// sweep. Poll-goroutine only.
func (r *Reactor) fireTimers() {
	r.san.Check("fireTimers on", r.name)
	now := time.Now()
	for len(r.timers) > 0 {
		top := r.timers[0]
		if top.when.After(now) {
			return
		}
		heap.Pop(&r.timers)
		r.contain(nil, top.fn)
	}
}
