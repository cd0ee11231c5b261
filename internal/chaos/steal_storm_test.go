package chaos

import (
	"sync"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/gid"

	"repro/internal/testutil/leakcheck"
)

// TestStealStormWakeExactlyOne is the scheduler storm (named in PR 8, when
// the pool stole between per-worker queues): 64 producers flood a 4-worker
// pool through a seeded delay injector, so workers block inside injected
// delays and the pool leans hard on wake propagation (a worker that takes a
// task and sees backlog wakes exactly one parked sibling). The proof
// obligations:
//
//   - liveness: every posted task completes — no lost wakeup strands the
//     queue behind parked workers (this is the failure counted parking
//     would hit if a producer's wake were elided while no spinner was
//     actually polling);
//   - quiescence: the pool drains to zero depth and shuts down cleanly
//     with no leaked goroutines (leakcheck.Main covers the package).
//
// The schedule is seeded (CHAOS_SEED, default 1337) so a failing
// interleaving reproduces. Run with -race -count=20 to sweep schedules.
func TestStealStormWakeExactlyOne(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	pool := executor.NewWorkerPool("storm", 4, &reg)
	in := New(SeedFromEnv(1337),
		// Sparse injected delays: enough to wedge individual workers, small
		// enough to keep the storm sub-second.
		Rule{Action: Delay, Rate: 0.05, Delay: 200 * time.Microsecond},
	)
	ex := in.Wrap(pool)

	const producers = 64
	const perProducer = 30
	comps := make([][]*executor.Completion, producers)
	var wg sync.WaitGroup
	wg.Add(producers)
	for i := 0; i < producers; i++ {
		i := i
		go func() {
			defer wg.Done()
			for j := 0; j < perProducer; j++ {
				comps[i] = append(comps[i], ex.Post(func() {}))
			}
		}()
	}
	wg.Wait()
	for _, cs := range comps {
		for _, c := range cs {
			if err := c.Wait(); err != nil {
				t.Fatalf("storm task failed: %v", err)
			}
		}
	}
	st := pool.Stats()
	if st.Completed != producers*perProducer {
		t.Fatalf("Completed = %d, want %d", st.Completed, producers*perProducer)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("QueueDepth = %d after drain, want 0", st.QueueDepth)
	}
	pool.Shutdown()
}
