// Package pyjama is the public facade of the reproduction: the programmer's
// API corresponding to Pyjama's PjRuntime static interface plus the runtime
// functions of Table II. Generated code emitted by the pjc source-to-source
// compiler calls into this package; hand-written programs may use it
// directly with closures.
//
// A process-wide default runtime backs the package-level functions,
// mirroring Pyjama's static runtime. Tests or embedders that need isolation
// can build their own core.Runtime instead.
package pyjama

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/executor"
	"repro/internal/gid"
)

// Mode re-exports the scheduling-property modes.
type Mode = core.Mode

// Re-exported scheduling-property constants (Table I).
const (
	Wait   = core.Wait
	Nowait = core.Nowait
	NameAs = core.NameAs
	Await  = core.Await
)

var (
	mu  sync.Mutex
	std = core.NewRuntime(nil)
)

// Runtime returns the process-wide default runtime.
func Runtime() *core.Runtime {
	mu.Lock()
	defer mu.Unlock()
	return std
}

// RegisterEDT is virtual_target_register_edt (Table II): it creates an
// event loop, registers it as the virtual target named tname, and returns
// it. The caller drives events through the returned loop.
func RegisterEDT(tname string) (*eventloop.Loop, error) {
	l := eventloop.New(tname, &gid.Default)
	l.Start()
	if err := Runtime().RegisterEDT(tname, l); err != nil {
		l.Stop()
		return nil, err
	}
	return l, nil
}

// CreateWorker is virtual_target_create_worker (Table II): it creates a
// worker virtual target named tname with at most m threads.
func CreateWorker(tname string, m int) (*executor.WorkerPool, error) {
	return Runtime().CreateWorker(tname, m)
}

// TargetBlock executes block on the named virtual target with the given
// scheduling property; tag is the name_as tag (ignored unless mode is
// NameAs). It is the call the pjc compiler generates for
//
//	//#omp target virtual(target) [nowait|name_as(tag)|await]
//	{ block }
//
// Configuration errors (unknown target, missing tag) panic: generated code
// has no error path, exactly like Pyjama's generated Java. A panic inside
// the block itself is captured in the returned Completion instead.
func TargetBlock(target string, mode Mode, tag string, block func()) *executor.Completion {
	var comp *executor.Completion
	var err error
	if mode == NameAs {
		comp, err = Runtime().InvokeNamed(target, tag, block)
	} else {
		comp, err = Runtime().Invoke(target, mode, block)
	}
	if err != nil {
		panic(fmt.Sprintf("pyjama: target block failed: %v", err))
	}
	return comp
}

// TargetBlockIf is TargetBlock guarded by the directive's if-clause: with
// cond false the block runs synchronously on the encountering goroutine.
func TargetBlockIf(cond bool, target string, mode Mode, tag string, block func()) *executor.Completion {
	if !cond {
		return executor.NewCompletedCompletion(executor.RunCaptured(block))
	}
	return TargetBlock(target, mode, tag, block)
}

// WaitFor implements the standalone wait(tag, ...) directive: suspend until
// every block submitted under each tag has finished.
func WaitFor(tags ...string) {
	if err := Runtime().Wait(tags...); err != nil {
		panic(fmt.Sprintf("pyjama: waited block failed: %v", err))
	}
}

// AwaitCompletion holds the calling goroutine in the await logical barrier
// until comp finishes (exported for hand-written continuation code).
func AwaitCompletion(comp *executor.Completion) { Runtime().AwaitCompletion(comp) }

// AwaitChan holds the calling goroutine in the await logical barrier until
// done fires — the paper's future-work bridge to asynchronous I/O.
func AwaitChan(done <-chan struct{}) { Runtime().AwaitDone(done) }

// TeamSize applies a parallel directive's if-clause: if cond is false the
// region runs with a team of one (serialized), otherwise with n threads.
func TeamSize(cond bool, n int) int {
	if !cond {
		return 1
	}
	return n
}
