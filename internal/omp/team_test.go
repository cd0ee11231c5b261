package omp

import (
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
	"repro/internal/testutil/raceflag"
)

// idleTeams returns how many teams of size n are parked.
func idleTeams(n int) int {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	return len(idle.teams[n])
}

// idleMembers returns how many member goroutines the parked teams hold.
func idleMembers() int {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	total := 0
	for n, s := range idle.teams {
		total += len(s) * (n - 1)
	}
	return total
}

// dropIdleTeams retires every parked team of size n.
func dropIdleTeams(n int) {
	idle.mu.Lock()
	s := idle.teams[n]
	delete(idle.teams, n)
	idle.mu.Unlock()
	for _, t := range s {
		t.retire()
	}
}

// memberGoroutines counts the live goroutines running (*team).member.
func memberGoroutines() int {
	var dump strings.Builder
	pprof.Lookup("goroutine").WriteTo(&dump, 2)
	return strings.Count(dump.String(), "omp.(*team).member(")
}

// TestParallelReusesParkedTeam: once a team of the size is parked, an empty
// region allocates nothing; it is woken, not forked.
func TestParallelReusesParkedTeam(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, n := range []int{2, 4} {
		Parallel(n, func(*Team) {})
		if got := testing.AllocsPerRun(100, func() { Parallel(n, func(*Team) {}) }); got != 0 {
			t.Errorf("Parallel(%d, empty) on a parked team: %v allocs/op, want 0", n, got)
		}
	}
}

// TestCriticalAllocatesNothingForSeenName: a name already registered costs
// no candidate mutex.
func TestCriticalAllocatesNothingForSeenName(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	Critical("seen", func() {})
	if got := testing.AllocsPerRun(100, func() { Critical("seen", func() {}) }); got != 0 {
		t.Errorf("Critical on a seen name: %v allocs/op, want 0", got)
	}
}

// TestConstructStateDoesNotCrossRegions: back-to-back regions on one team
// each start from construct ordinal 0 with no shared state left over, so
// every region runs its Single once and covers its loop exactly once.
func TestConstructStateDoesNotCrossRegions(t *testing.T) {
	const n, iters = 3, 50
	for region := 0; region < 2; region++ {
		var singles atomic.Int64
		counts := make([]int32, iters)
		Parallel(n, func(tc *Team) {
			if tc.seq != 0 {
				t.Errorf("region %d thread %d: construct ordinal %d at entry, want 0", region, tc.ThreadNum(), tc.seq)
			}
			tc.Single(func() { singles.Add(1) })
			tc.For(0, iters, Dynamic, 2, func(i int) { atomic.AddInt32(&counts[i], 1) })
			if got := Reduce(tc, 1, func(a, b int) int { return a + b }); got != n {
				t.Errorf("region %d thread %d: Reduce = %d, want %d", region, tc.ThreadNum(), got, n)
			}
		})
		if got := singles.Load(); got != 1 {
			t.Errorf("region %d: Single ran %d times, want 1", region, got)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("region %d: iteration %d ran %d times", region, i, c)
			}
		}
	}
}

// TestMasterPanicRetiresTeam: a panic in the master's body reaches the
// caller, the members finish their body and exit, and the next region of the
// same size runs on a team whose members all finish before it returns.
func TestMasterPanicRetiresTeam(t *testing.T) {
	dropIdleTeams(3)
	verify := leakcheck.Check(t)
	var members sync.WaitGroup
	members.Add(2)
	release := make(chan struct{})
	func() {
		defer func() {
			close(release)
			if r := recover(); r != "master" {
				t.Fatalf("recovered %v, want the master's panic", r)
			}
		}()
		Parallel(3, func(tc *Team) {
			if tc.ThreadNum() == 0 {
				panic("master")
			}
			<-release // still in body when the master's panic unwinds
			members.Done()
		})
	}()
	members.Wait()
	for round := 0; round < 20; round++ {
		var ran atomic.Int64
		Parallel(3, func(tc *Team) {
			if tc.ThreadNum() != 0 {
				runtime.Gosched()
			}
			ran.Add(1)
		})
		if got := ran.Load(); got != 3 {
			t.Fatalf("round %d: Parallel(3) returned after %d of 3 bodies", round, got)
		}
	}
	dropIdleTeams(3)
	verify()
}

// TestIdleTeamsAreBounded: a burst of concurrent regions builds one team
// each, but at quiescence only maxIdleTeams of them stay parked and every
// other member goroutine has exited.
func TestIdleTeamsAreBounded(t *testing.T) {
	const burst = 64
	var started, finished sync.WaitGroup
	started.Add(burst)
	finished.Add(burst)
	gate := make(chan struct{})
	for i := 0; i < burst; i++ {
		go func() {
			defer finished.Done()
			Parallel(2, func(tc *Team) {
				if tc.ThreadNum() == 0 {
					started.Done()
					<-gate // all burst regions are in flight at once
				}
			})
		}()
	}
	started.Wait()
	close(gate)
	finished.Wait()
	if got := idleTeams(2); got > maxIdleTeams {
		t.Fatalf("%d teams of size 2 parked, bound %d", got, maxIdleTeams)
	}
	poll.Until(t, "member goroutines to equal the idle list's", func() bool {
		return memberGoroutines() == idleMembers()
	})
}
