package omp

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestParallelTeamShape(t *testing.T) {
	var ids sync.Map
	var master atomic.Int64
	Parallel(4, func(tc *Team) {
		if tc.NumThreads() != 4 {
			t.Errorf("NumThreads = %d", tc.NumThreads())
		}
		ids.Store(tc.ThreadNum(), true)
		if tc.ThreadNum() == 0 {
			master.Add(1)
		}
	})
	for i := 0; i < 4; i++ {
		if _, ok := ids.Load(i); !ok {
			t.Fatalf("thread id %d never ran", i)
		}
	}
	if master.Load() != 1 {
		t.Fatalf("master ran %d times", master.Load())
	}
}

func TestParallelDefaultThreads(t *testing.T) {
	var n atomic.Int64
	Parallel(0, func(tc *Team) { n.Add(1) })
	if want := runtime.GOMAXPROCS(0); int(n.Load()) != want {
		t.Fatalf("team size = %d, want %d", n.Load(), want)
	}
}

func TestMasterIsCaller(t *testing.T) {
	// OpenMP fork-join: the encountering thread is the master and
	// participates — the root cause of the paper's EDT-responsiveness
	// problem with synchronous parallel regions.
	type token struct{}
	callerCh := make(chan token, 1)
	callerCh <- token{}
	var masterGotToken atomic.Bool
	Parallel(2, func(tc *Team) {
		if tc.ThreadNum() == 0 {
			select {
			case <-callerCh:
				masterGotToken.Store(true)
			default:
			}
		}
	})
	if !masterGotToken.Load() {
		t.Fatal("master did not run on the calling goroutine's schedule")
	}
}

func coverage(n, lo, hi int, sched Schedule, chunk int) []int32 {
	counts := make([]int32, hi-lo)
	Parallel(n, func(tc *Team) {
		tc.For(lo, hi, sched, chunk, func(i int) {
			atomic.AddInt32(&counts[i-lo], 1)
		})
	})
	return counts
}

func TestForSchedulesCoverEveryIterationOnce(t *testing.T) {
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		for _, chunk := range []int{0, 1, 3, 7} {
			for _, n := range []int{1, 2, 3, 8} {
				counts := coverage(n, 5, 105, sched, chunk)
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("sched=%v chunk=%d n=%d: iteration %d ran %d times",
							sched, chunk, n, i+5, c)
					}
				}
			}
		}
	}
}

func TestForEmptyRange(t *testing.T) {
	var ran atomic.Int64
	Parallel(3, func(tc *Team) {
		tc.For(10, 10, Static, 0, func(i int) { ran.Add(1) })
		tc.For(10, 5, Dynamic, 2, func(i int) { ran.Add(1) })
	})
	if ran.Load() != 0 {
		t.Fatalf("empty ranges executed %d iterations", ran.Load())
	}
}

func TestForSchedulePropertySumMatchesSequential(t *testing.T) {
	f := func(vals []int32, nt uint8, sched uint8, chunk uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		var got atomic.Int64
		ParallelForSchedule(int(nt%8)+1, 0, len(vals),
			Schedule(sched%3), int(chunk%9), func(i int) {
				got.Add(int64(vals[i]))
			})
		return got.Load() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierPhases(t *testing.T) {
	const n, rounds = 4, 50
	counter := make([]int32, rounds)
	Parallel(n, func(tc *Team) {
		for r := 0; r < rounds; r++ {
			atomic.AddInt32(&counter[r], 1)
			tc.Barrier()
			// After the barrier every member must see the full count.
			if got := atomic.LoadInt32(&counter[r]); got != n {
				t.Errorf("round %d: counter = %d after barrier, want %d", r, got, n)
			}
			tc.Barrier()
		}
	})
}

func TestSingleRunsOnce(t *testing.T) {
	var n atomic.Int64
	var after atomic.Int64
	Parallel(6, func(tc *Team) {
		for r := 0; r < 10; r++ {
			tc.Single(func() { n.Add(1) })
			// Implicit barrier: all members see the single done.
			after.Store(n.Load())
		}
	})
	if n.Load() != 10 {
		t.Fatalf("Single ran %d times across 10 rounds", n.Load())
	}
}

func TestMasterOnlyThreadZero(t *testing.T) {
	var ran sync.Map
	Parallel(4, func(tc *Team) {
		tc.Master(func() { ran.Store(tc.ThreadNum(), true) })
	})
	count := 0
	ran.Range(func(k, v any) bool {
		count++
		if k.(int) != 0 {
			t.Fatalf("Master ran on thread %d", k)
		}
		return true
	})
	if count != 1 {
		t.Fatalf("Master ran on %d threads", count)
	}
}

func TestSectionsEachOnce(t *testing.T) {
	var counts [5]int32
	Parallel(3, func(tc *Team) {
		tc.Sections(
			func() { atomic.AddInt32(&counts[0], 1) },
			func() { atomic.AddInt32(&counts[1], 1) },
			func() { atomic.AddInt32(&counts[2], 1) },
			func() { atomic.AddInt32(&counts[3], 1) },
			func() { atomic.AddInt32(&counts[4], 1) },
		)
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("section %d ran %d times", i, c)
		}
	}
}

func TestCriticalMutualExclusion(t *testing.T) {
	var inside atomic.Int64
	var maxSeen atomic.Int64
	var sum int64 // protected by the critical section itself
	Parallel(8, func(tc *Team) {
		for i := 0; i < 200; i++ {
			Critical("sum", func() {
				if v := inside.Add(1); v > maxSeen.Load() {
					maxSeen.Store(v)
				}
				sum++
				inside.Add(-1)
			})
		}
	})
	if maxSeen.Load() != 1 {
		t.Fatalf("critical section concurrency = %d, want 1", maxSeen.Load())
	}
	if sum != 8*200 {
		t.Fatalf("sum = %d, want %d", sum, 8*200)
	}
}

func TestCriticalDifferentNamesIndependent(t *testing.T) {
	// Two differently named criticals must be able to interleave; just
	// check they both work without deadlock when nested.
	done := make(chan struct{})
	go func() {
		Critical("outer", func() {
			Critical("inner", func() {})
		})
		close(done)
	}()
	<-done
}

func TestReduceSum(t *testing.T) {
	got := 0.0
	Parallel(5, func(tc *Team) {
		local := float64(tc.ThreadNum() + 1)
		r := Reduce(tc, local, func(a, b float64) float64 { return a + b })
		if tc.ThreadNum() == 0 {
			got = r
		}
		// Every member receives the reduction result.
		if r != 15 {
			t.Errorf("thread %d: Reduce = %v, want 15", tc.ThreadNum(), r)
		}
	})
	if got != 15 {
		t.Fatalf("Reduce = %v, want 15", got)
	}
}

func TestReduceRepeated(t *testing.T) {
	Parallel(3, func(tc *Team) {
		for r := 1; r <= 5; r++ {
			got := Reduce(tc, r, func(a, b int) int { return a + b })
			if got != 3*r {
				t.Errorf("round %d: Reduce = %d, want %d", r, got, 3*r)
			}
		}
	})
}

func TestParallelReduceMatchesSequential(t *testing.T) {
	f := func(vals []int32, nt uint8) bool {
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		got := ParallelReduce(int(nt%8)+1, 0, len(vals), int64(0),
			func(i int, acc int64) int64 { return acc + int64(vals[i]) },
			func(a, b int64) int64 { return a + b })
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTasksRunByTaskwait(t *testing.T) {
	var n atomic.Int64
	Parallel(4, func(tc *Team) {
		tc.Master(func() {
			for i := 0; i < 100; i++ {
				tc.Task(func() { n.Add(1) })
			}
			tc.Taskwait()
			if got := n.Load(); got != 100 {
				t.Errorf("after Taskwait: %d/100 tasks done", got)
			}
		})
	})
}

func TestTasksDrainedAtRegionEnd(t *testing.T) {
	var n atomic.Int64
	Parallel(2, func(tc *Team) {
		tc.Task(func() { n.Add(1) })
	})
	if n.Load() != 2 {
		t.Fatalf("region end left %d/2 tasks unexecuted", 2-n.Load())
	}
}

func TestNestedTasks(t *testing.T) {
	var n atomic.Int64
	Parallel(2, func(tc *Team) {
		tc.Master(func() {
			tc.Task(func() {
				n.Add(1)
				tc.Task(func() { n.Add(1) })
			})
			tc.Taskwait()
		})
	})
	if n.Load() != 2 {
		t.Fatalf("nested task not executed: n = %d", n.Load())
	}
}

func TestNestedParallelRegions(t *testing.T) {
	var n atomic.Int64
	Parallel(2, func(outer *Team) {
		Parallel(2, func(inner *Team) {
			n.Add(1)
		})
	})
	if n.Load() != 4 {
		t.Fatalf("nested regions ran %d bodies, want 4", n.Load())
	}
}

func TestScheduleString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Guided.String() != "guided" {
		t.Fatal("schedule names wrong")
	}
	if Schedule(9).String() == "" {
		t.Fatal("unknown schedule should still stringify")
	}
}

func TestGuidedChunksShrinkButCover(t *testing.T) {
	// Larger space to exercise the shrinking-chunk path.
	counts := coverage(4, 0, 10000, Guided, 2)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("guided: iteration %d ran %d times", i, c)
		}
	}
}

func TestDeterministicResultUnderRandomWork(t *testing.T) {
	// ParallelFor over random work must produce the same histogram as the
	// sequential loop regardless of interleaving.
	r := rand.New(rand.NewSource(7))
	data := make([]int, 5000)
	for i := range data {
		data[i] = r.Intn(100)
	}
	want := make([]int64, 100)
	for _, v := range data {
		want[v]++
	}
	got := make([]int64, 100)
	ParallelForSchedule(6, 0, len(data), Dynamic, 16, func(i int) {
		atomic.AddInt64(&got[data[i]], 1)
	})
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("bucket %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func BenchmarkForkJoinOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parallel(4, func(tc *Team) {})
	}
}

func BenchmarkBarrier(b *testing.B) {
	Parallel(4, func(tc *Team) {
		for i := 0; i < b.N; i++ {
			tc.Barrier()
		}
	})
}

func BenchmarkParallelForStatic(b *testing.B) {
	data := make([]float64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelFor(4, 0, len(data), func(j int) { data[j] = float64(j) * 1.5 })
	}
}

func BenchmarkParallelForDynamic(b *testing.B) {
	data := make([]float64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelForSchedule(4, 0, len(data), Dynamic, 256, func(j int) { data[j] = float64(j) * 1.5 })
	}
}

func BenchmarkReduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ParallelReduce(4, 0, 1<<14, 0.0,
			func(i int, acc float64) float64 { return acc + float64(i) },
			func(a, b float64) float64 { return a + b })
	}
}

func TestParallelSections(t *testing.T) {
	var a, b, c atomic.Int64
	ParallelSections(0,
		func() { a.Add(1) },
		func() { b.Add(1) },
		func() { c.Add(1) },
	)
	if a.Load() != 1 || b.Load() != 1 || c.Load() != 1 {
		t.Fatalf("sections ran %d/%d/%d times", a.Load(), b.Load(), c.Load())
	}
	// Explicit team size, more sections than threads.
	var n atomic.Int64
	fns := make([]func(), 10)
	for i := range fns {
		fns[i] = func() { n.Add(1) }
	}
	ParallelSections(2, fns...)
	if n.Load() != 10 {
		t.Fatalf("ran %d/10 sections", n.Load())
	}
	ParallelSections(1) // zero sections: no-op, no hang
}
