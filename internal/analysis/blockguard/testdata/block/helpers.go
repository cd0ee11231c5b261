// Interprocedural cases (PR 9): the blocking call hides behind
// same-package helper chains; blockguard consults the call-graph summaries
// and reports the full path at the EDT-side call site. Chains deeper than
// the summary bound degrade to a conservative "cannot prove" finding, and
// an Owns-guarded wait (the runtime's own shutdown shape) stays clean.
package block

import (
	"sync"
	"time"

	"repro/internal/executor"
	"repro/internal/gui"
)

// napAfter > nap: the sleep sits two frames below the block.
func napAfter(d time.Duration) { nap(d) }

func nap(d time.Duration) { time.Sleep(d) }

func viaHelperChain(tk *gui.Toolkit, pool *executor.WorkerPool) {
	tk.InvokeLater(func() {
		napAfter(time.Millisecond) // want `time\.Sleep blocks the event-dispatch thread \(call path napAfter > nap; enclosing block is dispatched via Toolkit\.InvokeLater\)`
	})
	pool.Post(func() {
		napAfter(time.Millisecond) // clean: worker blocks may sleep
	})
}

// stopPool waits only when the caller is NOT one of the pool's own
// goroutines — reactor.Stop's shape. The Owns guard keeps the summary
// clean, so EDT callers are not flagged.
func stopPool(p *executor.WorkerPool, wg *sync.WaitGroup) {
	if p.Owns() {
		return
	}
	wg.Wait()
}

func viaGuardedHelper(tk *gui.Toolkit, p *executor.WorkerPool, wg *sync.WaitGroup) {
	tk.InvokeLater(func() {
		stopPool(p, wg) // clean: the helper's wait is Owns-guarded
	})
}

// b1..b7: the sleep sits six frames below b1 — beyond MaxDepth. Calling b1
// from an EDT block is reported as unprovable; calling b2 still carries
// the full five-step path.
func b1(d time.Duration) { b2(d) }
func b2(d time.Duration) { b3(d) }
func b3(d time.Duration) { b4(d) }
func b4(d time.Duration) { b5(d) }
func b5(d time.Duration) { b6(d) }
func b6(d time.Duration) { b7(d) }
func b7(d time.Duration) { time.Sleep(d) }

func deepBlockChain(tk *gui.Toolkit) {
	tk.InvokeLater(func() {
		b1(time.Millisecond) // want `cannot prove b1 never blocks this event-dispatch block \(dispatched via Toolkit\.InvokeLater\): call-graph summary truncated at depth 5`
		b2(time.Millisecond) // want `time\.Sleep blocks the event-dispatch thread \(call path b2 > b3 > b4 > b5 > b6 > b7; enclosing block is dispatched via Toolkit\.InvokeLater\)`
	})
}

// countdown is self-recursive: a self-call adds no frames, so its summary is
// exactly the direct sleep, not a truncated one.
func countdown(n int) {
	if n == 0 {
		return
	}
	time.Sleep(time.Millisecond)
	countdown(n - 1)
}

// ping and pong recurse mutually: no fixpoint at bounded depth, so the
// summary is truncated and an EDT caller gets "cannot prove", not silence.
func ping(n int) {
	if n > 0 {
		pong(n - 1)
	}
}

func pong(n int) { ping(n - 1) }

// dispatchOnly hands its sleep to the pool: the literal's effects belong to
// the pool's context, not to dispatchOnly's callers.
func dispatchOnly(p *executor.WorkerPool) {
	p.Post(func() {
		time.Sleep(time.Millisecond)
	})
}

// inline invokes its literal on the spot, so the literal is an inline scope
// and its sleep is dispatchOnly's opposite: an effect of the helper.
func inline() {
	func() {
		time.Sleep(time.Millisecond)
	}()
}

func receive(ch chan int) int { return <-ch }

// selectRecv polls inside a select: the sanctioned non-blocking idiom.
func selectRecv(ch chan int) {
	select {
	case <-ch:
	default:
	}
}

// guardedTwice calls nap once under an off-home guard and once without one:
// the unguarded call keeps nap's sleep in the summary.
func guardedTwice(p *executor.WorkerPool) {
	if !p.Owns() {
		nap(time.Millisecond)
	}
	nap(time.Millisecond)
}

func summaryShapes(tk *gui.Toolkit, p *executor.WorkerPool, ch chan int) {
	tk.InvokeLater(func() {
		countdown(3)    // want `time\.Sleep blocks the event-dispatch thread \(call path countdown; enclosing block is dispatched via Toolkit\.InvokeLater\)`
		ping(3)         // want `cannot prove ping never blocks this event-dispatch block \(dispatched via Toolkit\.InvokeLater\): call-graph summary truncated at depth 5`
		dispatchOnly(p) // clean: the sleep runs on the pool
		inline()        // want `time\.Sleep blocks the event-dispatch thread \(call path inline; enclosing block is dispatched via Toolkit\.InvokeLater\)`
		receive(ch)     // want `channel receive blocks the event-dispatch thread \(call path receive; enclosing block is dispatched via Toolkit\.InvokeLater\)`
		selectRecv(ch)  // clean: the receive is inside select
		guardedTwice(p) // want `time\.Sleep blocks the event-dispatch thread \(call path guardedTwice > nap; enclosing block is dispatched via Toolkit\.InvokeLater\)`
	})
}
