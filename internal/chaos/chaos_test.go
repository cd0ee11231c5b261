package chaos

import (
	"errors"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/testutil/poll"
)

func TestSeededDeterminism(t *testing.T) {
	mk := func() []Action {
		in := New(42, Rule{Action: Panic, Rate: 0.3})
		var out []Action
		for i := 0; i < 200; i++ {
			a, _ := in.decide("w")
			out = append(out, a)
		}
		return out
	}
	a, b := mk(), mk()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at call %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] == Panic {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("rate rule fired %d/%d times", fired, len(a))
	}
}

func TestNthRuleDeterministicWithCountAndTarget(t *testing.T) {
	in := New(1, Rule{Target: "w", Action: Kill, Nth: 3, Count: 2})
	var kills []int
	for i := 1; i <= 12; i++ {
		if a, _ := in.decide("w"); a == Kill {
			kills = append(kills, i)
		}
	}
	if len(kills) != 2 || kills[0] != 3 || kills[1] != 6 {
		t.Fatalf("kills at calls %v, want [3 6]", kills)
	}
	if a, _ := in.decide("other"); a != None {
		t.Fatal("rule fired for non-matching target")
	}
	if got := in.Injected(Kill); got != 2 {
		t.Fatalf("Injected(Kill) = %d", got)
	}
}

func TestAfterExemptsWarmup(t *testing.T) {
	in := New(1, Rule{Action: Drop, Nth: 1, After: 5})
	drops := 0
	for i := 1; i <= 8; i++ {
		if a, _ := in.decide("w"); a == Drop {
			drops++
		}
	}
	if drops != 3 {
		t.Fatalf("drops = %d, want 3 (calls 6..8)", drops)
	}
}

func TestWrapInjectsIntoPool(t *testing.T) {
	var reg gid.Registry
	pool := executor.NewWorkerPool("w", 2, &reg)
	defer pool.Shutdown()
	// Call 1: panic, call 2: drop, call 3: kill, rest clean.
	in := New(7,
		Rule{Action: Panic, Nth: 1, Count: 1},
		Rule{Action: Drop, Nth: 1, After: 1, Count: 1},
		Rule{Action: Kill, Nth: 1, After: 2, Count: 1},
	)
	e := in.Wrap(pool)
	if e.Name() != "w" {
		t.Fatalf("Name = %q", e.Name())
	}

	var pe *executor.PanicError
	if err := e.Post(func() {}).Wait(); !errors.As(err, &pe) {
		t.Fatalf("injected panic err = %v", err)
	} else if _, ok := pe.Value.(*InjectedPanic); !ok {
		t.Fatalf("panic value = %#v, want *InjectedPanic", pe.Value)
	}
	if err := e.Post(func() {}).Wait(); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("dropped err = %v", err)
	}
	if err := e.Post(func() {}).Wait(); !errors.Is(err, executor.ErrWorkerCrashed) {
		t.Fatalf("killed err = %v", err)
	}
	if err := e.Post(func() {}).Wait(); err != nil {
		t.Fatalf("clean call err = %v", err)
	}
	// The killed task's completion finishes before its dying worker is
	// counted, so the crash is awaited rather than read once.
	poll.Until(t, "pool counts the crash", func() bool { return pool.Crashes() == 1 })
	if pool.Crashes() != 1 || pool.Stats().Panics != 1 {
		t.Fatalf("pool saw crashes=%d panics=%d", pool.Crashes(), pool.Stats().Panics)
	}
}

func TestStallBlocksUntilRelease(t *testing.T) {
	var reg gid.Registry
	pool := executor.NewWorkerPool("w", 1, &reg)
	defer pool.Shutdown()
	in := New(7, Rule{Action: Stall, Nth: 1, Count: 1})
	e := in.Wrap(pool)
	ran := make(chan struct{})
	c := e.Post(func() { close(ran) })
	select {
	case <-c.Done():
		t.Fatal("stalled task completed before Release")
	case <-time.After(50 * time.Millisecond):
	}
	in.Release()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	<-ran
}

func TestBoundedStallAndDelay(t *testing.T) {
	var reg gid.Registry
	pool := executor.NewWorkerPool("w", 1, &reg)
	defer pool.Shutdown()
	in := New(7,
		Rule{Action: Stall, Nth: 1, Count: 1, Delay: 20 * time.Millisecond},
		Rule{Action: Delay, Nth: 1, After: 1, Count: 1, Delay: 20 * time.Millisecond},
	)
	e := in.Wrap(pool)
	start := time.Now()
	if err := e.Post(func() {}).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := e.Post(func() {}).Wait(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("bounded stall+delay took %v, want >= 40ms", d)
	}
}

func TestDisabledInjectorPassesThrough(t *testing.T) {
	in := New(1, Rule{Action: Panic, Nth: 1})
	in.SetEnabled(false)
	for i := 0; i < 10; i++ {
		if a, _ := in.decide("w"); a != None {
			t.Fatal("disabled injector fired")
		}
	}
	in.SetEnabled(true)
	if a, _ := in.decide("w"); a != Panic {
		t.Fatal("re-enabled injector did not fire")
	}
}

func TestNilInjectorIsSafe(t *testing.T) {
	var in *Injector
	if a, _ := in.decide("w"); a != None {
		t.Fatal("nil injector fired")
	}
}
