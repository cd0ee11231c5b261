package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventloop"
	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/testutil/poll"
)

// fixture builds a runtime with an EDT loop and a worker pool, the standard
// two-target setup of Section III.D.
type fixture struct {
	rt   *Runtime
	edt  *eventloop.Loop
	pool *executor.WorkerPool
}

func newFixture(t *testing.T, workers int) *fixture {
	t.Helper()
	reg := &gid.Registry{}
	rt := NewRuntime(reg)
	edt := eventloop.New("edt", reg)
	edt.Start()
	if err := rt.RegisterEDT("edt", edt); err != nil {
		t.Fatal(err)
	}
	pool, err := rt.CreateWorker("worker", workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rt.Shutdown()
		edt.Stop()
	})
	return &fixture{rt: rt, edt: edt, pool: pool}
}

func TestTableII_Registration(t *testing.T) {
	reg := &gid.Registry{}
	rt := NewRuntime(reg)
	defer rt.Shutdown()

	edt := eventloop.New("edt", reg)
	edt.Start()
	defer edt.Stop()

	if err := rt.RegisterEDT("edt", edt); err != nil {
		t.Fatalf("virtual_target_register_edt: %v", err)
	}
	pool, err := rt.CreateWorker("worker", 3)
	if err != nil {
		t.Fatalf("virtual_target_create_worker: %v", err)
	}
	if pool.Workers() != 3 {
		t.Fatalf("worker target has %d threads, want 3", pool.Workers())
	}
	for _, name := range []string{"edt", "worker"} {
		if _, err := rt.Invoke(name, Wait, func() {}); err != nil {
			t.Fatalf("target %q not resolvable by name: %v", name, err)
		}
	}
	if err := rt.RegisterEDT("edt", edt); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("duplicate EDT registration: %v, want ErrDuplicateName", err)
	}
	if _, err := rt.CreateWorker("worker", 1); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("duplicate worker registration: %v, want ErrDuplicateName", err)
	}
	if stats := rt.PoolStats(); len(stats) != 2 {
		t.Fatalf("PoolStats = %v, want the two targets", stats)
	}
}

func TestTableI_DefaultWaits(t *testing.T) {
	f := newFixture(t, 2)
	done := false
	comp, err := f.rt.Invoke("worker", Wait, func() {
		time.Sleep(5 * time.Millisecond)
		done = true
	})
	if err != nil {
		t.Fatal(err)
	}
	// Default mode: by the time Invoke returns, the block has finished.
	if !done || !comp.Finished() {
		t.Fatal("default mode returned before the target block finished")
	}
}

func TestTableI_NowaitReturnsImmediately(t *testing.T) {
	f := newFixture(t, 1)
	gate := make(chan struct{})
	started := time.Now()
	comp, err := f.rt.Invoke("worker", Nowait, func() { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(started); elapsed > time.Second {
		t.Fatalf("nowait blocked for %v", elapsed)
	}
	if comp.Finished() {
		t.Fatal("block reported finished while still gated")
	}
	close(gate)
	if err := comp.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestTableI_NameAsAndWaitTag(t *testing.T) {
	f := newFixture(t, 4)
	var n atomic.Int64
	// "different target blocks are allowed to share the same name-tag"
	for i := 0; i < 10; i++ {
		if _, err := f.rt.InvokeNamed("worker", "batch", func() {
			time.Sleep(time.Millisecond)
			n.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.rt.WaitTag("batch"); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 10 {
		t.Fatalf("WaitTag returned with %d/10 blocks finished", got)
	}
	if p := f.rt.PendingInTag("batch"); p != 0 {
		t.Fatalf("PendingInTag = %d after WaitTag", p)
	}
}

// TestWaitTagKeepsPrunedPanicVerdict pins an ordering bug found by
// sim.Explore (internal/sim, corpus scenario "nametag-pruned-panic"): when
// a tagged block finished — by panicking — before the next InvokeNamed on
// the same tag, add's pruning dropped the completion together with its
// error, and WaitTag reported success. The verdict must survive pruning.
func TestWaitTagKeepsPrunedPanicVerdict(t *testing.T) {
	f := newFixture(t, 2)
	comp, err := f.rt.InvokeNamed("worker", "batch", func() { panic("tagged block failed") })
	if err != nil {
		t.Fatal(err)
	}
	// Deterministically lose the race the explorer found: let the panicking
	// block fully finish before the second tagged invoke prunes the group.
	comp.Wait()
	if _, err := f.rt.InvokeNamed("worker", "batch", func() {}); err != nil {
		t.Fatal(err)
	}
	err = f.rt.WaitTag("batch")
	var pe *executor.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("WaitTag lost the pruned block's panic: err = %v", err)
	}
	// The verdict is consumed by the join; a fresh batch starts clean.
	if _, err := f.rt.InvokeNamed("worker", "batch", func() {}); err != nil {
		t.Fatal(err)
	}
	if err := f.rt.WaitTag("batch"); err != nil {
		t.Fatalf("second WaitTag after a clean batch: %v", err)
	}
}

func TestWaitTagUnknownTagIsNoop(t *testing.T) {
	f := newFixture(t, 1)
	if err := f.rt.WaitTag("never-used"); err != nil {
		t.Fatal(err)
	}
}

func TestWaitMultipleTags(t *testing.T) {
	f := newFixture(t, 2)
	var n atomic.Int64
	f.rt.InvokeNamed("worker", "a", func() { n.Add(1) })
	f.rt.InvokeNamed("worker", "b", func() { n.Add(1) })
	if err := f.rt.Wait("a", "b"); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 2 {
		t.Fatal("Wait(a,b) returned early")
	}
}

func TestNameAsRequiresTag(t *testing.T) {
	f := newFixture(t, 1)
	if _, err := f.rt.Invoke("worker", NameAs, func() {}); !errors.Is(err, ErrNoTag) {
		t.Fatalf("err = %v, want ErrNoTag", err)
	}
	if _, err := f.rt.InvokeNamed("worker", "", func() {}); !errors.Is(err, ErrNoTag) {
		t.Fatalf("err = %v, want ErrNoTag", err)
	}
}

func TestTableI_AwaitKeepsEDTLive(t *testing.T) {
	// The defining behaviour of await (Table I row 4, Algorithm 1 lines
	// 13-16): while the EDT waits for an offloaded block, it processes
	// other events; the continuation runs after the block completes.
	f := newFixture(t, 1)
	var mu sync.Mutex
	var log []string
	say := func(s string) { mu.Lock(); log = append(log, s); mu.Unlock() }

	release := make(chan struct{})
	handler := f.edt.Post(func() {
		say("handler-start")
		f.rt.Invoke("worker", Await, func() {
			say("offloaded-start")
			<-release
			say("offloaded-end")
		})
		say("handler-continuation")
	})
	// A second event arrives while the first handler is awaiting. It must
	// be dispatched before the continuation (EDT responsiveness).
	var secondDone atomic.Bool
	second := f.edt.Post(func() { say("second-event"); secondDone.Store(true) })
	if err := second.Wait(); err != nil {
		t.Fatal(err)
	}
	if !secondDone.Load() {
		t.Fatal("second event not processed during await")
	}
	close(release)
	if err := handler.Wait(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	idx := map[string]int{}
	for i, s := range log {
		idx[s] = i
	}
	if !(idx["handler-start"] < idx["second-event"] &&
		idx["second-event"] < idx["handler-continuation"] &&
		idx["offloaded-end"] < idx["handler-continuation"]) {
		t.Fatalf("await ordering violated: %v", log)
	}
}

func TestAwaitOnWorkerHelpsDrainQueue(t *testing.T) {
	// A pool worker in the await barrier must process other queued tasks
	// ("as for the worker virtual target, it is achieved by processing
	// another runnable task in Pyjama's task queue").
	f := newFixture(t, 1) // exactly one worker: helping is observable
	aux, err := f.rt.CreateWorker("aux", 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = aux
	var helped atomic.Bool
	release := make(chan struct{})

	// Occupied worker awaits a block on "aux"; meanwhile a task queued on
	// "worker" can only run if the awaiting worker helps.
	main, err := f.rt.Invoke("worker", Nowait, func() {
		f.rt.Invoke("aux", Await, func() { <-release })
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to actually park in the barrier, then queue help
	// work: the queued block can then only run if the awaiting worker helps.
	poll.UntilBlockedIn(t, "(*WorkerPool).WaitPending")
	queued, err := f.rt.Invoke("worker", Nowait, func() { helped.Store(true) })
	if err != nil {
		t.Fatal(err)
	}
	if err := queued.Wait(); err != nil {
		t.Fatal(err)
	}
	if !helped.Load() {
		t.Fatal("queued task did not run while its worker was awaiting")
	}
	close(release)
	main.Wait()
	if st := f.pool.Stats(); st.Helped == 0 {
		t.Fatalf("pool stats report no helped tasks: %+v", st)
	}
}

func TestThreadContextAwareness(t *testing.T) {
	// Algorithm 1 line 6: a block targeted at the executor the caller is
	// already a member of runs synchronously on the calling goroutine.
	f := newFixture(t, 2)
	ran := make(chan gid.ID, 1)
	comp, err := f.rt.Invoke("worker", Wait, func() {
		outer := gid.Current()
		inner, err := f.rt.Invoke("worker", Nowait, func() { ran <- gid.Current() })
		if err != nil {
			t.Error(err)
			return
		}
		// Even with nowait, the nested block already completed synchronously.
		if !inner.Finished() {
			t.Error("nested same-target block was not executed synchronously")
		}
		if got := <-ran; got != outer {
			t.Errorf("nested block ran on goroutine %d, want encountering %d", got, outer)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestEDTBlockFromEDTIsInline(t *testing.T) {
	f := newFixture(t, 1)
	err := f.edt.InvokeAndWait(func() {
		before := f.edt.Stats().Submitted
		comp, err := f.rt.Invoke("edt", Wait, func() {})
		if err != nil {
			t.Error(err)
			return
		}
		if !comp.Finished() {
			t.Error("EDT->EDT block not finished synchronously")
		}
		// No extra dispatch happened: the block was inlined, not queued.
		if after := f.edt.Stats().Submitted; after != before {
			t.Errorf("EDT->EDT block went through the queue (submitted %d -> %d)", before, after)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvokeIfClause(t *testing.T) {
	f := newFixture(t, 1)
	self := gid.Current()
	// if(false): sequential elision for this invocation only.
	comp, err := f.rt.InvokeIf(false, "worker", Nowait, func() {
		if gid.Current() != self {
			t.Error("if(false) block ran off the encountering goroutine")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !comp.Finished() {
		t.Fatal("if(false) block not synchronous")
	}
	// if(true): normal dispatch.
	ran := make(chan gid.ID, 1)
	comp, err = f.rt.InvokeIf(true, "worker", Wait, func() { ran <- gid.Current() })
	if err != nil {
		t.Fatal(err)
	}
	comp.Wait()
	if got := <-ran; got == self {
		t.Fatal("if(true) block did not offload")
	}
}

// TestEmptyTargetNameIsUnknown: the runtime has no default target, so a
// directive without a target name names no target.
func TestEmptyTargetNameIsUnknown(t *testing.T) {
	f := newFixture(t, 1)
	ran := false
	if _, err := f.rt.Invoke("", Wait, func() { ran = true }); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("empty target name: %v, want ErrUnknownTarget", err)
	}
	if ran {
		t.Fatal("a block with no target ran")
	}
}

func TestErrors(t *testing.T) {
	f := newFixture(t, 1)
	if _, err := f.rt.Invoke("nope", Wait, func() {}); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("unknown target: %v", err)
	}
	if _, err := f.rt.Invoke("worker", Wait, nil); !errors.Is(err, ErrNilBlock) {
		t.Fatalf("nil block: %v", err)
	}
	if err := f.rt.RegisterTarget("x", nil); err == nil {
		t.Fatal("nil executor accepted")
	}
}

func TestShutdownStopsOwnedWorkersOnly(t *testing.T) {
	reg := &gid.Registry{}
	rt := NewRuntime(reg)
	edt := eventloop.New("edt", reg)
	edt.Start()
	defer edt.Stop()
	rt.RegisterEDT("edt", edt)
	pool, _ := rt.CreateWorker("worker", 1)
	rt.Shutdown()
	// Owned pool is stopped: posts rejected.
	if err := pool.Post(func() {}).Wait(); !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("owned pool still accepting after Shutdown: %v", err)
	}
	// External EDT still alive.
	if err := edt.Post(func() {}).Wait(); err != nil {
		t.Fatalf("external EDT was stopped by runtime Shutdown: %v", err)
	}
	// Runtime rejects further use.
	if _, err := rt.Invoke("edt", Wait, func() {}); !errors.Is(err, ErrRuntimeStopped) {
		t.Fatalf("invoke after shutdown: %v", err)
	}
	if _, err := rt.CreateWorker("w2", 1); !errors.Is(err, ErrRuntimeStopped) {
		t.Fatalf("CreateWorker after shutdown: %v", err)
	}
	rt.Shutdown() // idempotent
}

func TestPanicPropagatesThroughInvoke(t *testing.T) {
	f := newFixture(t, 1)
	comp, err := f.rt.Invoke("worker", Wait, func() { panic("kernel bug") })
	if err != nil {
		t.Fatal(err)
	}
	var pe *executor.PanicError
	if e := comp.Err(); !errors.As(e, &pe) || pe.Value != "kernel bug" {
		t.Fatalf("Err = %v", e)
	}
	// WaitTag surfaces panics too.
	f.rt.InvokeNamed("worker", "t", func() { panic("tagged bug") })
	if err := f.rt.WaitTag("t"); err == nil {
		t.Fatal("WaitTag swallowed the panic error")
	}
}

func TestAwaitDoneUnaffiliatedGoroutine(t *testing.T) {
	f := newFixture(t, 1)
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() { // plain goroutine, not a member of any target
		f.rt.AwaitDone(done)
		close(finished)
	}()
	select {
	case <-finished:
		t.Fatal("AwaitDone returned before done")
	case <-time.After(10 * time.Millisecond):
	}
	close(done)
	select {
	case <-finished:
	case <-time.After(time.Second):
		t.Fatal("AwaitDone did not return after done")
	}
}

// TestAwaitDoneAlreadyRaisedOnEDT: a signal that is already raised holds no
// barrier — the EDT returns at once and dispatches nothing on the way.
func TestAwaitDoneAlreadyRaisedOnEDT(t *testing.T) {
	f := newFixture(t, 1)
	done := make(chan struct{})
	close(done)
	err := f.edt.InvokeAndWait(func() {
		queued := f.edt.Post(func() {})
		f.rt.AwaitDone(done)
		if queued.Finished() {
			t.Error("AwaitDone dispatched a queued event although its signal was already raised")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSectionIVA_TranslationScenario executes the exact program of Section
// IV.A: an EDT handler offloads S1;nested-S2;S3 to the worker with await,
// S2 being a nowait EDT update, then runs S4 on the EDT after the block.
func TestSectionIVA_TranslationScenario(t *testing.T) {
	f := newFixture(t, 2)
	var mu sync.Mutex
	var log []string
	say := func(s string) { mu.Lock(); log = append(log, s); mu.Unlock() }

	handler := f.edt.Post(func() {
		say("start") // Label.setText("Start Processing Task!")
		f.rt.Invoke("worker", Await, func() {
			say("S1") // compute_half1
			f.rt.Invoke("edt", Nowait, func() { say("S2") })
			say("S3") // compute_half2
		})
		say("S4") // Label.setText("Task finished")
	})
	if err := handler.Wait(); err != nil {
		t.Fatal(err)
	}
	// S2 is posted nowait to the EDT, which is pumping during the await, so
	// it must have been dispatched before the handler finished... unless it
	// raced with block completion; wait for it explicitly via a final EDT
	// turn to make the assertion deterministic.
	f.edt.Post(func() {}).Wait()

	mu.Lock()
	defer mu.Unlock()
	idx := map[string]int{}
	for i, s := range log {
		idx[s] = i
	}
	for _, s := range []string{"start", "S1", "S2", "S3", "S4"} {
		if _, ok := idx[s]; !ok {
			t.Fatalf("missing %s in %v", s, log)
		}
	}
	if !(idx["start"] < idx["S1"] && idx["S1"] < idx["S3"] && idx["S3"] < idx["S4"]) {
		t.Fatalf("program order violated: %v", log)
	}
	if !(idx["S1"] < idx["S2"]) {
		t.Fatalf("S2 ran before S1: %v", log)
	}
}

// TestFigure6_Scenario runs the button-click pseudo-code of Figure 6: the
// handler offloads download+compute nowait, with nested EDT updates; the EDT
// stays free to handle further events immediately.
func TestFigure6_Scenario(t *testing.T) {
	f := newFixture(t, 2)
	var mu sync.Mutex
	var log []string
	say := func(s string) { mu.Lock(); log = append(log, s); mu.Unlock() }

	finished := make(chan struct{})
	buttonOnClick := func() {
		say("msg:started")
		f.rt.Invoke("worker", Nowait, func() {
			say("hash+download+convert")
			f.rt.Invoke("edt", Wait, func() { say("display-img") })
			f.rt.Invoke("edt", Wait, func() { say("msg:finished") })
			close(finished)
		})
	}
	handler := f.edt.Post(buttonOnClick)
	if err := handler.Wait(); err != nil {
		t.Fatal(err)
	}
	// The handler returns immediately (nowait): EDT is responsive.
	if err := f.edt.Post(func() { say("another-event") }).Wait(); err != nil {
		t.Fatal(err)
	}
	<-finished
	f.edt.Post(func() {}).Wait() // flush trailing EDT updates

	mu.Lock()
	defer mu.Unlock()
	idx := map[string]int{}
	for i, s := range log {
		idx[s] = i
	}
	if !(idx["msg:started"] < idx["hash+download+convert"] &&
		idx["hash+download+convert"] < idx["display-img"] &&
		idx["display-img"] < idx["msg:finished"]) {
		t.Fatalf("Figure 6 ordering violated: %v", log)
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{Wait: "wait", Nowait: "nowait", NameAs: "name_as", Await: "await", Mode(99): "Mode(99)"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func BenchmarkInvokeWait(b *testing.B) {
	reg := &gid.Registry{}
	rt := NewRuntime(reg)
	defer rt.Shutdown()
	rt.CreateWorker("worker", 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Invoke("worker", Wait, func() {})
	}
}

func BenchmarkInvokeNowait(b *testing.B) {
	reg := &gid.Registry{}
	rt := NewRuntime(reg)
	defer rt.Shutdown()
	rt.CreateWorker("worker", 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Invoke("worker", Nowait, func() {})
	}
	b.StopTimer()
	rt.Shutdown()
}

func BenchmarkInvokeSameTargetInline(b *testing.B) {
	// Thread-context awareness fast path: invoking a block on the executor
	// the caller already belongs to.
	reg := &gid.Registry{}
	rt := NewRuntime(reg)
	defer rt.Shutdown()
	pool, _ := rt.CreateWorker("worker", 1)
	_ = pool
	done := make(chan struct{})
	rt.Invoke("worker", Nowait, func() {
		for i := 0; i < b.N; i++ {
			rt.Invoke("worker", Wait, func() {})
		}
		close(done)
	})
	<-done
}
