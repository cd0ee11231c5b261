//go:build ompsan

package sanitize

import (
	"strings"
	"sync"
	"testing"
)

// recoverString runs fn and returns the recovered panic value as a string
// ("" when fn does not panic).
func recoverString(fn func()) (msg string) {
	defer func() {
		if v := recover(); v != nil {
			msg = v.(string)
		}
	}()
	fn()
	return ""
}

func TestHomeOwnerPasses(t *testing.T) {
	var h Home
	h.Bind("test", "owner")
	before := Checks()
	h.Check("mutate", "x")
	h.Check("mutate again", "x")
	if got := Checks() - before; got != 2 {
		t.Fatalf("Checks advanced by %d, want 2", got)
	}
}

func TestHomeViolationPanicsWithBothStacks(t *testing.T) {
	var h Home
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.Bind("eventloop", "edt")
	}()
	wg.Wait()

	msg := recoverString(func() { h.Check("mutate widget", "status") })
	if msg == "" {
		t.Fatal("off-home Check did not panic")
	}
	for _, want := range []string{
		"ompsan: mutate widget status",
		`eventloop "edt"`,
		"-- violating goroutine stack --",
		"-- home context bound at --",
		"sanitize.(*Home).Bind", // the binder's frame must appear in the home stack
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic message missing %q:\n%s", want, msg)
		}
	}
	// Both stacks must be present and distinct: the violating stack carries
	// this test function, the home stack carries the binder goroutine.
	if !strings.Contains(msg, "TestHomeViolationPanicsWithBothStacks") {
		t.Errorf("violating stack does not show the violating frame:\n%s", msg)
	}
}

func TestHomeUnboundPassesVacuously(t *testing.T) {
	var h Home
	h.Check("anything", "x") // never bound: restart window, must not panic
	h.Bind("test", "x")
	h.Unbind()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.Check("after unbind", "x") // unbound again: must not panic
	}()
	<-done
}

func TestHomeRebindMovesHome(t *testing.T) {
	var h Home
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.Bind("test", "gen1")
	}()
	wg.Wait()
	// A rebind from another goroutine moves the home: the old home becomes
	// a violator while the new one passes.
	h.Bind("test", "gen2")
	h.Check("on new home", "x")
}

func TestHomeDescribe(t *testing.T) {
	var h Home
	if d := h.Describe(); d != "" {
		t.Fatalf("unbound Describe = %q, want empty", d)
	}
	h.Bind("reactor", "netA")
	d := h.Describe()
	if !strings.Contains(d, `reactor "netA"`) || !strings.Contains(d, "home context") {
		t.Fatalf("Describe = %q", d)
	}
}

func TestMembersCheck(t *testing.T) {
	var m Members
	m.Check("before any join", "x") // empty set passes vacuously

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Join("workerpool", "pool")
		m.Check("as member", "x")
	}()
	wg.Wait()

	msg := recoverString(func() { m.Check("run block on", "pool") })
	if msg == "" {
		t.Fatal("non-member Check did not panic")
	}
	for _, want := range []string{
		"ompsan: run block on pool on goroutine",
		`workerpool "pool"`,
		"-- violating goroutine stack --",
		"joined at --",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic message missing %q:\n%s", want, msg)
		}
	}
}

func TestMembersLeave(t *testing.T) {
	var m Members
	m.Join("workerpool", "pool")
	m.Check("while member", "x")
	m.Leave()
	// The set is empty again: passes vacuously (pool shut down).
	m.Check("after leave", "x")
}
