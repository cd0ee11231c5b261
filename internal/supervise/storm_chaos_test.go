//go:build chaos

// Storm test for the chaos CI job (`make chaos`): a sustained mixed-fault
// storm against a supervised pool under the full runtime. Heavier
// than the default suite, so it is gated behind the `chaos` build tag and
// seeded via CHAOS_SEED for reproducibility.
package supervise_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/supervise"

	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
)

func TestSupervisedRuntimeUnderMixedFaultStorm(t *testing.T) {
	defer leakcheck.Check(t)()
	if !chaos.TagEnabled {
		t.Fatal("storm test compiled without the chaos tag")
	}
	seed := chaos.SeedFromEnv(1337)
	inj := chaos.New(seed,
		chaos.Rule{Action: chaos.Kill, Rate: 0.05, Count: 40},
		chaos.Rule{Action: chaos.Panic, Rate: 0.05, Count: 40},
		chaos.Rule{Action: chaos.Delay, Rate: 0.05, Delay: 200 * time.Microsecond},
	)
	var reg gid.Registry
	pool := executor.NewSupervisedPool("w", 4, &reg, executor.RestartConfig{
		MaxRestarts:    200,
		Window:         500 * time.Millisecond,
		BackoffInitial: 200 * time.Microsecond,
		BackoffMax:     2 * time.Millisecond,
	})
	s := inj.Wrap(pool)
	defer s.Shutdown()

	rt := core.NewRuntime(&reg)
	if err := rt.RegisterTarget("w", s); err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 250
	var mu sync.Mutex
	outcomes := map[string]int{}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				comp, err := rt.Invoke("w", core.Nowait, func() {
					time.Sleep(20 * time.Microsecond) // give the task a body
				})
				if err != nil {
					t.Errorf("invoke error: %v", err)
					return
				}
				select {
				case <-comp.Done():
				case <-time.After(10 * time.Second):
					t.Error("invocation hung past 10s")
					return
				}
				var kind string
				var pe *executor.PanicError
				switch cerr := comp.Err(); {
				case cerr == nil:
					kind = "ok"
				case errors.As(cerr, &pe):
					kind = "panic"
				case errors.Is(cerr, executor.ErrWorkerCrashed):
					kind = "crashed"
				default:
					t.Errorf("untyped completion error: %v", cerr)
					return
				}
				mu.Lock()
				outcomes[kind]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	mu.Lock()
	total := 0
	for _, n := range outcomes {
		total += n
	}
	ok := outcomes["ok"]
	mu.Unlock()
	if total != workers*perWorker {
		t.Fatalf("outcomes account for %d of %d invocations", total, workers*perWorker)
	}
	if ok == 0 {
		t.Fatal("nothing succeeded during the storm")
	}
	if inj.Injected(chaos.Kill) == 0 || inj.Injected(chaos.Panic) == 0 {
		t.Fatalf("storm too quiet: kills=%d panics=%d",
			inj.Injected(chaos.Kill), inj.Injected(chaos.Panic))
	}
	if pool.Restarts().Total == 0 {
		t.Fatal("storm killed workers but nothing was respawned")
	}

	// Faults are bounded by Count; the target must come back to healthy
	// and serve cleanly once the restart window slides past the storm.
	poll.UntilFor(t, 10*time.Second, "post-storm recovery", func() bool {
		return health(pool).StatusValue() == supervise.Healthy && s.Post(func() {}).Wait() == nil
	})
	t.Logf("storm outcomes: %v; kills=%d panics=%d respawns=%d",
		outcomes, inj.Injected(chaos.Kill), inj.Injected(chaos.Panic), pool.Restarts().Total)
}
