// Package integration exercises the whole stack together: runtime + event
// loop + GUI toolkit + kernels + omp, under nesting, stress, failure
// injection and shutdown races that no single package test covers.
package integration

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/gid"
	"repro/internal/gui"
	"repro/internal/kernels"
	"repro/internal/testutil/poll"
)

// stack is a full application fixture.
type stack struct {
	reg *gid.Registry
	rt  *core.Runtime
	tk  *gui.Toolkit
}

func newStack(t *testing.T, workers int) *stack {
	t.Helper()
	reg := &gid.Registry{}
	tk := gui.NewToolkit(reg)
	rt := core.NewRuntime(reg)
	if err := rt.RegisterEDT("edt", tk.EDT()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CreateWorker("worker", workers); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Shutdown(); tk.Dispose() })
	return &stack{reg: reg, rt: rt, tk: tk}
}

// TestFullGUIApplication drives a complete simulated app: buttons whose
// handlers offload kernels, update progress bars, and complete — checking
// confinement, counts and liveness end to end.
func TestFullGUIApplication(t *testing.T) {
	s := newStack(t, 3)
	progress := s.tk.NewProgressBar("progress", 100)
	status := s.tk.NewLabel("status")

	const clicks = 12
	var wg sync.WaitGroup
	wg.Add(clicks)
	btn := s.tk.NewButton("render", func() {
		status.SetText("rendering")
		s.rt.Invoke("worker", core.Nowait, func() {
			k := kernels.NewRayTracer(16)
			k.RunSeq()
			if err := k.Validate(); err != nil {
				t.Error(err)
			}
			s.rt.Invoke("edt", core.Wait, func() {
				progress.SetValue(progress.Value() + 100/clicks)
				status.SetText("done")
				wg.Done()
			})
		})
	})
	for i := 0; i < clicks; i++ {
		btn.Click()
	}
	waitDone(t, &wg, time.Minute)
	if s.tk.Violations() != 0 {
		t.Fatalf("confinement violations: %d", s.tk.Violations())
	}
	if btn.Clicks() != clicks {
		t.Fatalf("clicks = %d", btn.Clicks())
	}
	if len(progress.History()) != clicks {
		t.Fatalf("progress updates = %d", len(progress.History()))
	}
}

// TestSequentialElisionEquivalence runs a composite program with its
// directives interpreted and asserts the result of its text with every
// directive deleted — the OpenMP correctness philosophy at system level.
func TestSequentialElisionEquivalence(t *testing.T) {
	rt := core.NewRuntime(&gid.Registry{})
	defer rt.Shutdown()
	if _, err := rt.CreateWorker("worker", 2); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var out []int
	emit := func(v int) { mu.Lock(); out = append(out, v); mu.Unlock() }
	comp, err := rt.Invoke("worker", core.Nowait, func() {
		emit(1)
		rt.Invoke("worker", core.Wait, func() { emit(2) }) // same-target: inline
		emit(3)
	})
	if err != nil {
		t.Fatal(err)
	}
	comp.Wait()
	rt.InvokeNamed("worker", "g", func() { emit(4) })
	rt.WaitTag("g")
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(out) != "[1 2 3 4]" {
		t.Fatalf("parallel result %v, want [1 2 3 4], the order of the program text", out)
	}
}

// TestRandomInvokeStorm is the no-deadlock stress property: many goroutines
// issue random invoke sequences (random targets, modes, nesting) and every
// operation completes within the deadline.
func TestRandomInvokeStorm(t *testing.T) {
	reg := &gid.Registry{}
	rt := core.NewRuntime(reg)
	defer rt.Shutdown()
	for i := 0; i < 3; i++ {
		if _, err := rt.CreateWorker(fmt.Sprintf("w%d", i), 1+i); err != nil {
			t.Fatal(err)
		}
	}
	targets := []string{"w0", "w1", "w2"}
	modes := []core.Mode{core.Wait, core.Nowait, core.Await}

	const goroutines, opsPer = 8, 60
	var completed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < opsPer; op++ {
				target := targets[rng.Intn(len(targets))]
				mode := modes[rng.Intn(len(modes))]
				inner := targets[rng.Intn(len(targets))]
				comp, err := rt.Invoke(target, mode, func() {
					// Nested invoke from inside the block.
					rt.Invoke(inner, core.Nowait, func() { completed.Add(1) })
					completed.Add(1)
				})
				if err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				if mode == core.Nowait {
					comp.Wait()
				}
			}
		}(int64(g) + 1)
	}
	waitDone(t, &wg, time.Minute)
	// Outer blocks all ran; inner nowait blocks may still be draining.
	poll.UntilFor(t, 30*time.Second, "all nowait blocks to drain", func() bool {
		return completed.Load() >= goroutines*opsPer*2
	})
}

// TestTwoEDTs registers two event loops (e.g. two windows with separate
// dispatch threads) and bounces blocks between them.
func TestTwoEDTs(t *testing.T) {
	reg := &gid.Registry{}
	rt := core.NewRuntime(reg)
	defer rt.Shutdown()
	a := eventloop.New("edtA", reg)
	a.Start()
	defer a.Stop()
	b := eventloop.New("edtB", reg)
	b.Start()
	defer b.Stop()
	if err := rt.RegisterEDT("edtA", a); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterEDT("edtB", b); err != nil {
		t.Fatal(err)
	}
	var hops atomic.Int64
	done := make(chan struct{})
	var bounce func(n int)
	bounce = func(n int) {
		if n == 0 {
			close(done)
			return
		}
		target := "edtA"
		if n%2 == 0 {
			target = "edtB"
		}
		rt.Invoke(target, core.Nowait, func() {
			hops.Add(1)
			bounce(n - 1)
		})
	}
	bounce(20)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("bounce stalled after %d hops", hops.Load())
	}
	if hops.Load() != 20 {
		t.Fatalf("hops = %d", hops.Load())
	}
}

// TestDeepNestedAwaitOnEDT recursively awaits on the EDT: each level pumps
// the next level's events (dispatch depth grows), and all levels unwind.
// The worker side must use Await too: with a blocking Wait, recursion
// depth beyond the pool size exhausts the workers and deadlocks — the very
// trap the await logical barrier exists to avoid (a worker in the barrier
// help-runs the deeper blocks queued on its own pool).
func TestDeepNestedAwaitOnEDT(t *testing.T) {
	s := newStack(t, 2)
	const depth = 6
	// level counts the recurse frames open on the EDT at once.
	var level, maxDepth atomic.Int64
	var recurse func(n int)
	recurse = func(n int) {
		d := level.Add(1)
		defer level.Add(-1)
		if d > maxDepth.Load() {
			maxDepth.Store(d)
		}
		if n == 0 {
			return
		}
		// Await a worker block that itself awaits an EDT block.
		s.rt.Invoke("worker", core.Await, func() {
			s.rt.Invoke("edt", core.Await, func() { recurse(n - 1) })
		})
	}
	comp := s.tk.EDT().Post(func() { recurse(depth) })
	if err := comp.Wait(); err != nil {
		t.Fatal(err)
	}
	if maxDepth.Load() < depth {
		t.Fatalf("max dispatch depth %d, want >= %d (pump nesting broken)", maxDepth.Load(), depth)
	}
}

// TestPanicStorm injects panics into handlers and offloaded blocks; the
// system must remain fully operational afterwards.
func TestPanicStorm(t *testing.T) {
	s := newStack(t, 2)
	s.tk.SetPolicy(gui.CountViolations)
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0:
			s.tk.EDT().Post(func() { panic("edt handler bug") })
		case 1:
			s.rt.Invoke("worker", core.Nowait, func() { panic("worker bug") })
		case 2:
			s.rt.InvokeNamed("worker", "storm", func() { panic("tagged bug") })
		}
	}
	if err := s.rt.WaitTag("storm"); err == nil {
		t.Fatal("tag wait swallowed panics")
	}
	// Liveness after the storm.
	ok := false
	if err := s.tk.InvokeAndWait(func() { ok = true }); err != nil || !ok {
		t.Fatalf("EDT dead after panic storm: %v", err)
	}
	comp, err := s.rt.Invoke("worker", core.Wait, func() {})
	if err != nil || comp.Err() != nil {
		t.Fatalf("worker dead after panic storm: %v %v", err, comp.Err())
	}
}

// TestShutdownUnderLoad shuts the runtime down while blocks are in flight:
// in-flight work drains, later submissions fail cleanly, nothing hangs.
func TestShutdownUnderLoad(t *testing.T) {
	reg := &gid.Registry{}
	rt := core.NewRuntime(reg)
	rt.CreateWorker("worker", 2)
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		rt.Invoke("worker", core.Nowait, func() {
			time.Sleep(100 * time.Microsecond)
			ran.Add(1)
		})
	}
	rt.Shutdown()
	if got := ran.Load(); got != 100 {
		t.Fatalf("shutdown drained %d/100 blocks", got)
	}
	if _, err := rt.Invoke("worker", core.Wait, func() {}); err == nil {
		t.Fatal("invoke after shutdown succeeded")
	}
}

// TestKernelsInsideHandlersParallel runs every kernel family, parallelized,
// from inside offloaded handlers concurrently — the composition Evaluation
// A depends on.
func TestKernelsInsideHandlersParallel(t *testing.T) {
	s := newStack(t, 4)
	var wg sync.WaitGroup
	for _, name := range kernels.Names() {
		factory := kernels.Factories()[name]
		name := name
		wg.Add(1)
		s.rt.Invoke("worker", core.Nowait, func() {
			defer wg.Done()
			k := factory(kernels.TestSize(name))
			k.RunPar(2)
			if err := k.Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		})
	}
	waitDone(t, &wg, time.Minute)
}

func waitDone(t *testing.T, wg *sync.WaitGroup, timeout time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatal("timed out waiting for completion")
	}
}
