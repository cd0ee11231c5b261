package pyjama

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// Each test swaps in a fresh runtime so the package-level default does not
// leak across tests.
func fresh(t *testing.T) {
	t.Helper()
	prev := SetRuntime(core.NewRuntime(nil))
	t.Cleanup(func() {
		SetRuntime(prev).Shutdown()
	})
}

func TestTableIIRoundTrip(t *testing.T) {
	fresh(t)
	edt, err := RegisterEDT("edt")
	if err != nil {
		t.Fatal(err)
	}
	defer edt.Stop()
	pool, err := CreateWorker("worker", 2)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Workers() != 2 {
		t.Fatalf("workers = %d", pool.Workers())
	}
	if _, err := RegisterEDT("edt"); err == nil {
		t.Fatal("duplicate EDT accepted")
	}
}

func TestTargetBlockModes(t *testing.T) {
	fresh(t)
	if _, err := CreateWorker("worker", 2); err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	// Wait
	c := TargetBlock("worker", Wait, "", func() { n.Add(1) })
	if !c.Finished() || n.Load() != 1 {
		t.Fatal("wait mode did not complete synchronously")
	}
	// Nowait
	gate := make(chan struct{})
	c2 := TargetBlock("worker", Nowait, "", func() { <-gate; n.Add(1) })
	if c2.Finished() {
		t.Fatal("nowait block finished early")
	}
	close(gate)
	c2.Wait()
	// NameAs + WaitFor
	TargetBlock("worker", NameAs, "grp", func() { n.Add(1) })
	TargetBlock("worker", NameAs, "grp", func() { n.Add(1) })
	WaitFor("grp")
	if n.Load() != 4 {
		t.Fatalf("n = %d, want 4", n.Load())
	}
	// Await from an unaffiliated goroutine degrades to wait.
	c3 := TargetBlock("worker", Await, "", func() { n.Add(1) })
	if !c3.Finished() {
		t.Fatal("await did not complete")
	}
}

func TestTargetBlockPanicsOnUnknownTarget(t *testing.T) {
	fresh(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown target")
		}
	}()
	TargetBlock("ghost", Wait, "", func() {})
}

func TestTargetBlockIf(t *testing.T) {
	fresh(t)
	CreateWorker("worker", 1)
	ran := false
	c := TargetBlockIf(false, "worker", Nowait, "", func() { ran = true })
	if !ran || !c.Finished() {
		t.Fatal("if(false) did not run inline")
	}
}

func TestTeamSize(t *testing.T) {
	if TeamSize(false, 8) != 1 || TeamSize(true, 8) != 8 {
		t.Fatal("TeamSize")
	}
}

func TestAwaitChan(t *testing.T) {
	fresh(t)
	done := make(chan struct{})
	close(done)
	AwaitChan(done) // must return immediately
}

func TestReset(t *testing.T) {
	fresh(t)
	if _, err := CreateWorker("w", 1); err != nil {
		t.Fatal(err)
	}
	Reset()
	if _, err := CreateWorker("w", 1); err != nil {
		t.Fatalf("Reset kept old targets: %v", err)
	}
}
