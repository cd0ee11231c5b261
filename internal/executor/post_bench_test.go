package executor

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/gid"
)

// The three cases behind `make bench-mp`: the same Post against the same
// 2-worker pool from 1, 8×GOMAXPROCS and 64×GOMAXPROCS producers. The gate
// reads only the same-run ratio Post_NP / Post_1P (minimum ns/op of the
// former over the median of the latter), so it needs no pinned numbers from
// another machine. The pool is one queue behind one lock and this flood of
// empty tasks is what that costs most on (about 2× at 64 producers on two
// cores; no BENCHMARK.json workload looks like it), so the gate's MP_RATIO of
// 3 guards only against the collapse of an unbounded backlog — PR 3's pool,
// which had no backpressure, read 9.3×. Keep the names stable, the Makefile
// matches on them.

// drainPosts spins until the pool has completed want task bodies. The bodies
// are a single atomic add, so the drain cost is charged identically to every
// case.
func drainPosts(done *atomic.Int64, want int64) {
	for done.Load() < want {
		// Gosched, not a sleep: on a single-CPU runner a sleep would idle the
		// workers out of the measurement window.
		runtime.Gosched()
	}
}

// lonePostsInFlight caps what the lone producer of Post_1P has outstanding.
// Running free it now and then gets so far ahead that the workers never
// park, no Post pays a wakeup, and the case reads half its usual cost — a
// second regime, which the gate's ratio would then be taken against.
const lonePostsInFlight = 16

// benchPost measures Post on one pool: from the benchmark goroutine alone
// when producers is 1 — the uncontended enqueue path (allocation + wakeup
// decision) — and otherwise from producers×GOMAXPROCS goroutines hammering
// it, the many-producer lock-convoy scenario.
func benchPost(b *testing.B, producers int) {
	reg := &gid.Registry{}
	p := NewWorkerPool("bench", 2, reg)
	defer p.Shutdown()
	var done atomic.Int64
	body := func() { done.Add(1) }
	b.ReportAllocs()
	b.SetParallelism(producers)
	b.ResetTimer()
	if producers == 1 {
		for i := 0; i < b.N; i++ {
			p.Post(body)
			for int64(i)-done.Load() > lonePostsInFlight {
				runtime.Gosched()
			}
		}
	} else {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				p.Post(body)
			}
		})
	}
	drainPosts(&done, int64(b.N))
}

func BenchmarkPost_1P(b *testing.B)  { benchPost(b, 1) }
func BenchmarkPost_8P(b *testing.B)  { benchPost(b, 8) }
func BenchmarkPost_64P(b *testing.B) { benchPost(b, 64) }
