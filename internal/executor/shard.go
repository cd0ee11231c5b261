package executor

import (
	"sync"
	"sync/atomic"

	"repro/internal/sanitize"
)

// This file holds the sharded run-queue machinery underneath WorkerPool
// (DESIGN.md §15): one shard per worker, a growable ring deque per shard,
// and the per-worker state used by the stealing protocol.
//
// Locking rules (the whole protocol depends on these):
//
//   - shard.mu protects the shard's deque and its dead flag. shard.owned is
//     pool bookkeeping and is guarded by WorkerPool.mu instead.
//   - Never acquire two shard locks at once. A stealer pops the victim's
//     batch into a private buffer under the victim's lock, releases it, and
//     only then locks its own shard to keep the surplus — symmetric steals
//     can therefore never deadlock.
//   - Never hold a shard lock while taking WorkerPool.mu (or vice versa).
//     Paths that need both (crash re-homing) take them sequentially.

// runq is a growable power-of-two ring deque of tasks. The owning worker
// pops from the back (LIFO — cache-warm, newest first); stealers and helpers
// pop from the front (FIFO — oldest first), which is also what keeps a
// single-worker pool strictly FIFO. Not internally synchronized: callers
// hold the shard lock.
type runq struct {
	buf  []*task
	head int // index of the front element
	n    int // number of queued tasks
}

const runqMinCap = 64

func (q *runq) grow() {
	newCap := runqMinCap
	if len(q.buf) > 0 {
		newCap = len(q.buf) * 2
	}
	buf := make([]*task, newCap)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}

func (q *runq) pushBack(t *task) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = t
	q.n++
}

func (q *runq) popFront() *task {
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	q.maybeShrink()
	return t
}

func (q *runq) popBack() *task {
	i := (q.head + q.n - 1) & (len(q.buf) - 1)
	t := q.buf[i]
	q.buf[i] = nil
	q.n--
	q.maybeShrink()
	return t
}

// maybeShrink halves the ring once occupancy drops to a quarter of a large
// buffer, so a burst that ballooned the deque does not pin its high-water
// allocation forever (the GC pressure of a deep backlog is exactly what the
// multi-producer benchmarks punish).
func (q *runq) maybeShrink() {
	if len(q.buf) > 1024 && q.n <= len(q.buf)/4 {
		buf := make([]*task, len(q.buf)/2)
		for i := 0; i < q.n; i++ {
			buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = buf, 0
	}
}

// drain appends every queued task to out in FIFO order and empties the ring.
func (q *runq) drain(out []*task) []*task {
	for q.n > 0 {
		out = append(out, q.buf[q.head])
		q.buf[q.head] = nil
		q.head = (q.head + 1) & (len(q.buf) - 1)
		q.n--
	}
	q.head = 0
	if len(q.buf) > runqMinCap {
		q.buf = nil // a drained shard is dead or idle; drop the ballast
	}
	return out
}

// shard is one worker's local run-queue plus the lock-free mirrors producers
// and idle workers poll. Each live worker owns exactly one shard; producers
// hash onto shards by goroutine id (submitter affinity).
type shard struct {
	mu sync.Mutex
	q  runq
	// dead marks a shard that has been removed from the pool's snapshot and
	// drained (its worker crashed). Guarded by mu: a producer holding
	// a stale snapshot re-picks when it sees dead, so no task can land in a
	// queue nobody will ever drain.
	dead bool
	// owned reports whether a live worker drains this shard. Guarded by
	// WorkerPool.mu. An unowned ("orphan") shard — the last worker crashed —
	// stays in the snapshot so producers still have somewhere to post and
	// FailPending/Shutdown can fail what queued up; Grow re-adopts it before
	// creating fresh shards, which is how a supervisor's respawned worker
	// inherits the crashed worker's queue.
	owned bool

	// Lock-free mirrors, updated under mu at the point of change.
	len       atomic.Int64 // queue length (producers poll for backpressure, workers for work)
	submitted atomic.Int64 // tasks accepted into this shard (incremented under mu; see rehome)
	peak      atomic.Int64 // high watermark of len

	_ [64]byte // keep hot per-shard atomics off neighbouring shards' cache lines
}

// worker is the per-goroutine state of one pool worker: its shard, its
// parking slot, the LIFO/FIFO fairness tick, and a reusable steal buffer
// (stealing must stage the batch outside the victim's lock — see the
// locking rules above — and this buffer keeps that allocation-free).
type worker struct {
	shard    *shard
	pk       *parker
	ticks    uint
	stealBuf []*task
	// san stamps the owning goroutine: ticks and stealBuf are per-worker
	// confined state (no lock guards them), so under -tags=ompsan the
	// local-pop and steal paths assert they only ever run on the goroutine
	// spawnWorker bound. No-op untagged.
	san sanitize.Home
}

const (
	// stealBatchMax caps how many tasks one steal moves (steal-half, but
	// never more than this): bounded latency for the victim's remaining
	// work and a bounded stage buffer for the thief.
	stealBatchMax = 64
	// fairnessTick: every Nth local pop takes the oldest task instead of
	// the newest, so a constantly-refilled LIFO shard cannot starve its
	// tail. Prime, so it does not phase-lock with producer burst sizes.
	fairnessTick = 61
	// backpressureDepth is the per-shard backlog beyond which Post yields
	// the processor after enqueueing (soft flow control). Post still never
	// blocks and never runs foreign work inline — it only stops a flood of
	// producers from starving the workers and ballooning the live heap.
	backpressureDepth = 256
)

func newShard() *shard {
	return &shard{owned: true}
}

func newWorker(sh *shard) *worker {
	return &worker{
		shard:    sh,
		pk:       &parker{wake: make(chan struct{}, 1)},
		stealBuf: make([]*task, 0, stealBatchMax),
	}
}
