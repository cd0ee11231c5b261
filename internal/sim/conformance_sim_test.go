package sim_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestScheduleConformanceUnderExploration ports the PR 5 Algorithm 1
// conformance table (internal/core/conformance_test.go) onto the simulation
// executor: every scheduling mode crossed with every caller context, with
// each cell replayed across perturbed schedules instead of once on the real
// runtime. The real table proves one concrete execution conforms; this one
// proves the *properties* hold on every schedule the explorer visits.
//
// One deliberate difference: the real table asserts a posted block ran on a
// different goroutine (run.Gid != node.Gid). Under simulation everything
// shares one goroutine by construction, so the cells assert the scheduling
// decision (OpInline vs OpPost), span causality (the run span is parented
// to its invoke span no matter which schedule ran it), and each mode's
// barrier semantics — the parts of the table that are about *order*, which
// is exactly what exploration perturbs.
func TestScheduleConformanceUnderExploration(t *testing.T) {
	type confCase struct {
		caller     string
		target     string
		wantInline bool
	}
	contexts := []confCase{
		{caller: "main", target: "pool", wantInline: false},
		{caller: "main", target: "edt", wantInline: false},
		{caller: "edt-thread", target: "pool", wantInline: false},
		{caller: "edt-thread", target: "edt", wantInline: true},
		{caller: "pool-member", target: "pool", wantInline: true},
		{caller: "sibling-worker", target: "pool", wantInline: false},
	}
	modes := []core.Mode{core.Wait, core.Nowait, core.NameAs, core.Await}

	for _, mode := range modes {
		for _, cc := range contexts {
			cc, mode := cc, mode
			t.Run(fmt.Sprintf("%s/%s->%s", mode, cc.caller, cc.target), func(t *testing.T) {
				name := fmt.Sprintf("conformance/%s/%s->%s", mode, cc.caller, cc.target)
				sim.ExploreT(t, name, sim.Options{Runs: 8}, func(s *sim.Sim) error {
					buf := trace.NewBuffer(4096)
					defer trace.Use(buf)()

					rt := s.Runtime()
					defer rt.Shutdown()
					pool, err := s.RegisterPool(rt, "pool")
					if err != nil {
						return err
					}
					edt, err := s.RegisterLoop(rt, "edt")
					if err != nil {
						return err
					}
					sibling := s.NewPool("src")
					edtCaller := s.NewLoop("caller-edt")

					ran := false
					block := func() { ran = true }

					// doInvoke runs the directive and joins it, so the span
					// tree is closed when it returns; joined reports whether
					// the mode's contract says the block must have run by
					// the time the directive's join returned.
					var verdict error
					doInvoke := func() {
						switch mode {
						case core.NameAs:
							if _, err := rt.InvokeNamed(cc.target, "conf", block); err != nil {
								verdict = err
								return
							}
							verdict = rt.WaitTag("conf")
							if verdict == nil && !ran {
								verdict = errors.New("WaitTag returned before the tagged block ran")
							}
						case core.Nowait:
							comp, err := rt.Invoke(cc.target, core.Nowait, block)
							if err != nil {
								verdict = err
								return
							}
							comp.Wait()
							verdict = comp.Err()
						default: // Wait, Await: both join before returning.
							if _, err := rt.Invoke(cc.target, mode, block); err != nil {
								verdict = err
								return
							}
							if !ran {
								verdict = fmt.Errorf("%s returned before its block ran", mode)
							}
						}
					}

					switch cc.caller {
					case "main":
						doInvoke()
					case "edt-thread":
						// The caller's own EDT when targeting "pool"; the
						// target EDT itself for the inline edt->edt cell.
						if cc.target == "edt" {
							edt.Post(doInvoke).Wait()
						} else {
							edtCaller.Post(doInvoke).Wait()
						}
					case "pool-member":
						pool.Post(doInvoke).Wait()
					case "sibling-worker":
						sibling.Post(doInvoke).Wait()
					}
					if verdict != nil {
						return verdict
					}
					s.Quiesce()
					if !ran {
						return errors.New("block never ran")
					}

					tree := trace.BuildTree(buf.Snapshot())
					node, err := invokeSpan(tree, cc.target, mode)
					if err != nil {
						return err
					}

					// The scheduling decision (Algorithm 1 lines 6-8).
					if cc.wantInline {
						if !node.HasOp(trace.OpInline) {
							return fmt.Errorf("want inline execution, ops missing OpInline:\n%s", tree)
						}
						if node.HasOp(trace.OpPost) {
							return fmt.Errorf("inline cell must not post:\n%s", tree)
						}
					} else {
						if !node.HasOp(trace.OpPost) {
							return fmt.Errorf("want posted execution, ops missing OpPost:\n%s", tree)
						}
						if node.HasOp(trace.OpInline) {
							return fmt.Errorf("posted cell must not inline:\n%s", tree)
						}
						if node.Child("run", cc.target) == nil {
							return fmt.Errorf("posted block's run span not parented to invoke:\n%s", tree)
						}
					}

					// Mode-specific barrier semantics.
					switch mode {
					case core.Wait:
						if !node.HasOp(trace.OpWait) {
							return fmt.Errorf("wait mode must record the blocking join:\n%s", tree)
						}
					case core.Await:
						// Unlike the real table, every sim context is a
						// registered executor, so every *posted* await cell
						// must hold the helping barrier; inline cells finish
						// before reaching it.
						enter := buf.CountOp(trace.OpAwaitEnter) > 0
						if !cc.wantInline && !enter {
							return fmt.Errorf("posted await cell skipped the logical barrier:\n%s", tree)
						}
						if cc.wantInline && enter {
							return fmt.Errorf("inline await cell entered the barrier:\n%s", tree)
						}
					}
					return nil
				})
			})
		}
	}
}

// invokeSpan is findInvokeSpan from the core table, returning errors
// instead of failing t (scenario bodies report, Explore attributes the
// failing seed).
func invokeSpan(tree *trace.Tree, target string, mode core.Mode) (*trace.SpanNode, error) {
	var match *trace.SpanNode
	for _, n := range tree.FindAll("invoke", target) {
		for _, ev := range n.Events {
			if ev.Op == trace.OpInvoke && ev.Mode == mode.String() {
				if match != nil {
					return nil, fmt.Errorf("two invoke spans match %s on %q:\n%s", mode, target, tree)
				}
				match = n
			}
		}
	}
	if match == nil {
		return nil, fmt.Errorf("no invoke span for mode %s on target %q:\n%s", mode, target, tree)
	}
	return match, nil
}

// TestEDTPumpOrderDuringAwait: the help-first barrier on an EDT must
// preserve the loop's FIFO dispatch order — events posted while a handler
// awaits a pool block are helped in exactly the order they were enqueued,
// on every explored schedule (the paper's motivating property: awaiting
// must not reorder the event loop).
func TestEDTPumpOrderDuringAwait(t *testing.T) {
	sim.ExploreT(t, "edt-pump-order", sim.Options{Runs: 32}, func(s *sim.Sim) error {
		rt := s.Runtime()
		defer rt.Shutdown()
		if _, err := s.RegisterPool(rt, "pool"); err != nil {
			return err
		}
		loop, err := s.RegisterLoop(rt, "edt")
		if err != nil {
			return err
		}
		var order []int
		handler, err := rt.Invoke("edt", core.Nowait, func() {
			// Post follow-up events to our own loop, then await a pool
			// block: the barrier must help them through in FIFO order.
			for i := 0; i < 4; i++ {
				i := i
				loop.Post(func() { order = append(order, i) })
			}
			if _, err := rt.Invoke("pool", core.Await, func() {}); err != nil {
				order = append(order, -1)
			}
		})
		if err != nil {
			return err
		}
		handler.Wait()
		s.Quiesce()
		if len(order) != 4 {
			return fmt.Errorf("ran %d of 4 events: %v", len(order), order)
		}
		for i, v := range order {
			if v != i {
				return fmt.Errorf("await barrier reordered the EDT: %v", order)
			}
		}
		return nil
	})
}
