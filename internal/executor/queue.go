package executor

import (
	"sync"
	"sync/atomic"
)

// chunkSize is the number of slots per queue chunk. 128 pointers keeps a
// chunk at two cache pages, large enough that steady-state posting recycles
// one or two chunks through the pool instead of allocating.
const chunkSize = 128

// chunk is one fixed-size segment of a ChunkQueue: a ring of chunkSize
// slots drained head→tail, linked to the next segment when the producer
// outruns the consumer.
type chunk[T any] struct {
	elems      [chunkSize]T
	head, tail int // pop at head, push at tail; head <= tail <= chunkSize
	next       *chunk[T]
}

// ChunkQueue is a FIFO queue of T built from pooled fixed-size chunks — the
// dispatch queue under WorkerPool, and so under eventloop.Loop, a pool of
// one. Compared with
// the seed's `append`+reslice slice queue it never re-slices on pop, never
// copies on growth, and returns drained chunks to a sync.Pool, so
// steady-state Post traffic is allocation-free at the queue layer.
//
// ChunkQueue is NOT internally synchronized: callers must hold their own
// lock around Push/Pop/Drain (the pool already owns a mutex for the queue's
// node free list and stop flag; a second lock here would just double the
// acquire count — the "double-locking" the PR 3 overhaul removes).
type ChunkQueue[T any] struct {
	head, tail *chunk[T]
	n          int
	pool       *sync.Pool // *chunk[T]; shared per queue instance
}

// NewChunkQueue returns an empty queue with its own chunk pool.
func NewChunkQueue[T any]() ChunkQueue[T] {
	return ChunkQueue[T]{pool: &sync.Pool{New: func() any { return new(chunk[T]) }}}
}

// Push appends v and returns the new length.
func (q *ChunkQueue[T]) Push(v T) int {
	if q.tail == nil {
		c := q.pool.Get().(*chunk[T])
		q.head, q.tail = c, c
	} else if q.tail.tail == chunkSize {
		c := q.pool.Get().(*chunk[T])
		q.tail.next = c
		q.tail = c
	}
	c := q.tail
	c.elems[c.tail] = v
	c.tail++
	q.n++
	return q.n
}

// Pop removes and returns the oldest element; ok is false when empty.
func (q *ChunkQueue[T]) Pop() (v T, ok bool) {
	c := q.head
	if c == nil || c.head == c.tail {
		return v, false
	}
	var zero T
	v = c.elems[c.head]
	c.elems[c.head] = zero // release the reference for GC
	c.head++
	q.n--
	if c.head == chunkSize {
		// Chunk fully drained: unlink and recycle it. Every slot was
		// already zeroed on its way out, so only the cursors and link need
		// resetting — a full *c = chunk[T]{} here re-memclrs the whole
		// elems array and shows up as ~20% of Post-heavy profiles.
		q.head = c.next
		if q.head == nil {
			q.tail = nil
		}
		c.head, c.tail, c.next = 0, 0, nil
		q.pool.Put(c)
	} else if c.head == c.tail && c.next == nil {
		// Sole, now-empty chunk: rewind in place so a steady
		// produce/consume rhythm reuses it without pool traffic.
		c.head, c.tail = 0, 0
	}
	return v, true
}

// Len returns the number of queued elements.
func (q *ChunkQueue[T]) Len() int { return q.n }

// Drain removes every element, appending them to out in FIFO order, and
// recycles the chunks. It returns the extended slice.
func (q *ChunkQueue[T]) Drain(out []T) []T {
	for c := q.head; c != nil; {
		out = append(out, c.elems[c.head:c.tail]...)
		next := c.next
		*c = chunk[T]{}
		q.pool.Put(c)
		c = next
	}
	q.head, q.tail, q.n = nil, nil, 0
	return out
}

// casMax raises *a to at least v with a CAS loop, so concurrent observers
// can publish watermarks without a lock and without the check-then-store
// race (two racing stores could otherwise leave a stale lower peak).
func casMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
