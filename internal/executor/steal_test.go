package executor

import (
	"testing"
	"time"

	"repro/internal/gid"
	"repro/internal/testutil/leakcheck"
	"repro/internal/trace"
)

// postToShard is the white-box seam behind the stealing and re-homing
// regressions: like Post, but pinned to shard index i of the current
// snapshot (modulo its size) instead of hashing by goroutine id.
func (p *WorkerPool) postToShard(i int, fn func()) *Completion {
	t := &task{Bracket: Bracket{Fn: fn}}
	t.Enqueued(p.name, 0)
	p.enqueue(t, func() *shard {
		snap := *p.shards.Load()
		return snap[i%len(snap)]
	})
	return &t.comp
}

// blockBothWorkers parks both workers of a 2-worker pool inside gate tasks,
// one per shard (postToShard pins the gates to distinct shards, so each
// worker ends up holding exactly one of them). It returns the two release
// channels in shard order. The returned gates are running — not queued — so
// tasks posted afterwards stay queued until a gate opens.
func blockBothWorkers(t *testing.T, p *WorkerPool) (release0, release1 chan struct{}) {
	t.Helper()
	release0 = make(chan struct{})
	release1 = make(chan struct{})
	running := make(chan int, 2)
	p.postToShard(0, func() {
		running <- 0
		<-release0
	})
	// Wait for the first gate to hold a worker before posting the second:
	// with both posted at once a single worker could drain gate 0 and then
	// gate 1, leaving its sibling idle.
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("first gate task never started")
	}
	p.postToShard(1, func() {
		running <- 1
		<-release1
	})
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("second gate task never started")
	}
	return release0, release1
}

// TestStealDrainsBlockedSiblingShard: with one worker blocked, the free
// worker must steal the blocked worker's backlog — tasks pinned to a shard
// whose owner never returns can only complete via stealing.
func TestStealDrainsBlockedSiblingShard(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := NewWorkerPool("steal", 2, &reg)
	defer p.Shutdown()
	release0, release1 := blockBothWorkers(t, p)

	const n = 50
	var comps []*Completion
	for i := 0; i < n; i++ {
		comps = append(comps, p.postToShard(0, func() {}))
		comps = append(comps, p.postToShard(1, func() {}))
	}
	// Free exactly one worker. Whichever shard it owns, the other shard's
	// n tasks are reachable only by stealing (their owner is still parked
	// inside its gate).
	close(release0)
	for _, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatalf("task failed: %v", err)
		}
	}
	if s := p.Stats().Steals; s == 0 {
		t.Fatal("all tasks completed with a blocked worker, yet Steals == 0")
	}
	close(release1)
}

// TestSpanCausalityAcrossSteal: a stolen task's run span must stay parented
// on the submitter's span (the Enqueue edge), not on whatever the thief was
// doing — span trees would otherwise lie about causality whenever the
// runner is not the submitter's affinity worker.
func TestSpanCausalityAcrossSteal(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := NewWorkerPool("steal", 2, &reg)
	defer p.Shutdown()
	release0, release1 := blockBothWorkers(t, p)

	buf := trace.NewBuffer(1024)
	defer trace.Use(buf)()
	parent := trace.NewSpanID()
	prev := trace.Swap(parent)
	// One task per shard: whichever shard the soon-to-be-freed worker owns,
	// the other task completes only via a steal.
	c0 := p.postToShard(0, func() {})
	c1 := p.postToShard(1, func() {})
	trace.Swap(prev)

	close(release0)
	if err := c0.Wait(); err != nil {
		t.Fatalf("task 0 failed: %v", err)
	}
	if err := c1.Wait(); err != nil {
		t.Fatalf("task 1 failed: %v", err)
	}
	if s := p.Stats().Steals; s == 0 {
		t.Fatal("expected at least one steal with a worker blocked")
	}
	close(release1)

	runs := 0
	for _, e := range buf.Snapshot() {
		if e.Op == trace.OpSpanBegin && e.Name == "run" {
			runs++
			if e.Parent != parent {
				t.Fatalf("run span %d parented on %d, want submitter span %d",
					e.Span, e.Parent, parent)
			}
		}
	}
	if runs != 2 {
		t.Fatalf("saw %d traced runs, want 2", runs)
	}
}

// TestStealStatsCounters: Submitted stays exact across shards and Steals
// counts the stolen tasks — the scoreboard httpbench and the watchdog read.
func TestStealStatsCounters(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := NewWorkerPool("steal", 2, &reg)
	defer p.Shutdown()
	release0, release1 := blockBothWorkers(t, p)

	const n = 40
	var comps []*Completion
	for i := 0; i < n; i++ {
		comps = append(comps, p.postToShard(0, func() {}))
	}
	for i := 0; i < n; i++ {
		comps = append(comps, p.postToShard(1, func() {}))
	}
	close(release0)
	for _, c := range comps {
		c.Wait()
	}
	st := p.Stats()
	// 2 gates + 2n tasks were accepted; whatever was stolen is also counted.
	if st.Submitted != 2*n+2 {
		t.Fatalf("Submitted = %d, want %d", st.Submitted, 2*n+2)
	}
	if st.Steals <= 0 || st.Steals > 2*n {
		t.Fatalf("Steals = %d, want within (0, %d]", st.Steals, 2*n)
	}
	close(release1)
}

// TestWakePropagationFansOut: one producer flooding one shard must end up
// engaging every worker — the worker that takes a task and sees backlog
// wakes a parked sibling, which steals. The proof is completion of a burst
// far larger than one worker clears quickly, with everyone else parked.
func TestWakePropagationFansOut(t *testing.T) {
	defer leakcheck.Check(t)()
	var reg gid.Registry
	p := NewWorkerPool("fanout", 4, &reg)
	defer p.Shutdown()

	const n = 2000
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		p.postToShard(0, func() { done <- struct{}{} })
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-timeout:
			t.Fatalf("only %d/%d tasks ran: backlog wakeup lost", i, n)
		}
	}
}
