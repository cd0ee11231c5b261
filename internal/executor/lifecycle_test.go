package executor

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gid"
	"repro/internal/testutil/leakcheck"
)

// lifecycleOp is one of the ways a task's completion moves on.
type lifecycleOp int

const (
	opRun lifecycleOp = iota
	opCancel
	opComplete
	opFail
	opSecond // a second complete, with another verdict
)

func (o lifecycleOp) String() string {
	return [...]string{"Run", "Cancel", "complete", "Fail", "second"}[o]
}

// permutations returns every ordering of ops.
func permutations(ops []lifecycleOp) [][]lifecycleOp {
	if len(ops) <= 1 {
		return [][]lifecycleOp{append([]lifecycleOp(nil), ops...)}
	}
	var out [][]lifecycleOp
	for i := range ops {
		rest := append(append([]lifecycleOp(nil), ops[:i]...), ops[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]lifecycleOp{ops[i]}, p...))
		}
	}
	return out
}

// TestCompletionLifecycleOrderings applies Run, Cancel, complete, Fail and a
// second complete to one task node in every order, once with the operations
// after Run issued inside the body (the task is running) and once after it
// returns, and checks each step against the one-word lifecycle: a queued task
// either runs or is cancelled, never both; the first verdict wins, whatever
// comes later — the body's own included; Err is nil while the task is queued
// or running and never shows a lifecycle mark; Finished holds only once there
// is a verdict.
func TestCompletionLifecycleOrderings(t *testing.T) {
	errCancel, errComplete, errFail, errSecond := errors.New("cancel"), errors.New("complete"), errors.New("fail"), errors.New("second")
	const (
		queued = iota
		running
		done
	)
	orders := permutations([]lifecycleOp{opRun, opCancel, opComplete, opFail, opSecond})
	for _, order := range orders {
		for _, inside := range []bool{false, true} {
			name := fmt.Sprintf("%v inside=%v", order, inside)
			tk := &task{comp: new(Completion)}
			state, want := queued, error(nil)
			ran, cancelled, completedFirst := false, false, false
			check := func(step string) {
				t.Helper()
				if finished := tk.comp.Finished(); finished != (state == done) {
					t.Fatalf("%s, after %s: Finished = %v in state %d", name, step, finished, state)
				}
				if err := tk.comp.Err(); err != want {
					t.Fatalf("%s, after %s: Err = %v, want %v", name, step, err, want)
				}
			}
			var apply func(ops []lifecycleOp)
			apply = func(ops []lifecycleOp) {
				for i, o := range ops {
					wasQueued := state == queued
					switch o {
					case opRun:
						bodyRan := false
						tk.Fn = func() {
							bodyRan = true
							state = running
							check("the claim")
							if inside {
								apply(ops[i+1:])
							}
						}
						got := tk.Run(tk.comp, "lifecycle", nil)
						if got != wasQueued || bodyRan != wasQueued {
							t.Fatalf("%s: Run = %v, body ran %v, want %v", name, got, bodyRan, wasQueued)
						}
						if got {
							ran = true
							if state == running {
								state = done
							}
						}
					case opCancel, opFail:
						var got bool
						err := errCancel
						if o == opCancel {
							got = tk.comp.Cancel(err)
						} else {
							err = errFail
							got = tk.Fail(tk.comp, "lifecycle", err)
						}
						if got != wasQueued {
							t.Fatalf("%s: %v = %v in state %d", name, o, got, state)
						}
						if got {
							cancelled = true
							state, want = done, err
						}
					case opComplete, opSecond:
						err := errComplete
						if o == opSecond {
							err = errSecond
						}
						tk.comp.complete(err)
						if state != done {
							completedFirst = completedFirst || wasQueued
							state, want = done, err
						}
					}
					check(o.String())
					if o == opRun && inside && ran {
						return // the body applied the rest
					}
				}
			}
			apply(order)
			if ran && cancelled {
				t.Fatalf("%s: the task both ran and was cancelled", name)
			}
			if !completedFirst && ran == cancelled {
				t.Fatalf("%s: ran = cancelled = %v, want exactly one", name, ran)
			}
		}
	}
}

// TestCancelRacesRunStress: 8 goroutines Cancel every one of 10 000 queued
// tasks while the pool's workers Run them, so a Cancel meets tasks queued,
// running and finished. Each task either ran or was cancelled, exactly once,
// and its verdict says which.
func TestCancelRacesRunStress(t *testing.T) {
	defer leakcheck.Check(t)()
	const n, cancellers = 10000, 8
	var reg gid.Registry
	p := NewWorkerPool("cancelstress", 2, &reg)
	defer p.Shutdown()
	release := gateWorkers(t, p, 2)

	errCancel := errors.New("cancelled")
	ran := make([]atomic.Bool, n)
	won := make([]atomic.Int32, n)
	comps := make([]*Completion, n)
	for i := range comps {
		i := i
		// The yield keeps a task running while cancellers pass it.
		comps[i] = p.Post(func() { ran[i].Store(true); runtime.Gosched() })
	}
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < cancellers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			for k := 0; k < n; k++ {
				i := (g*n/cancellers + k) % n
				if comps[i].Cancel(errCancel) {
					won[i].Add(1)
				}
				// Yielding paces the cancellers to the workers, so both
				// take a share.
				runtime.Gosched()
			}
		}(g)
	}
	start.Done()
	for _, ch := range release {
		close(ch)
	}
	wg.Wait()

	var nran, ncancelled int
	for i, c := range comps {
		err := c.Wait()
		r, w := ran[i].Load(), won[i].Load()
		switch {
		case w > 1:
			t.Fatalf("task %d cancelled %d times", i, w)
		case r == (w == 1):
			t.Fatalf("task %d: ran %v, cancelled %v — want exactly one", i, r, w == 1)
		case r && err != nil, !r && err != errCancel:
			t.Fatalf("task %d: ran %v with verdict %v", i, r, err)
		}
		if r {
			nran++
		} else {
			ncancelled++
		}
	}
	if nran+ncancelled != n {
		t.Fatalf("ran %d + cancelled %d = %d, want %d", nran, ncancelled, nran+ncancelled, n)
	}
	t.Logf("ran %d, cancelled %d", nran, ncancelled)
}
