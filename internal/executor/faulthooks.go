package executor

import "sync/atomic"

// FaultHooks is the crash/panic notification pair of an executor that runs
// user code on goroutines it owns. WorkerPool, eventloop.Loop and
// reactor.Reactor embed it, so the two setters exist once and the promoted
// methods are what package supervise attaches through. A handler may be
// installed, replaced or removed (nil) at any time from any goroutine; a
// notification calls whichever handler is installed at that moment, on the
// goroutine that detected the fault — keep handlers non-blocking.
type FaultHooks struct {
	onCrash atomic.Pointer[func(any)]
	onPanic atomic.Pointer[func(any)]
}

// SetCrashHandler installs fn to be called when a goroutine of the executor
// dies abnormally (runtime.Goexit in user code, or a panic that escaped
// recovery). The argument is the escaped panic value, nil for a plain Goexit.
func (h *FaultHooks) SetCrashHandler(fn func(any)) { storeHook(&h.onCrash, fn) }

// SetPanicHandler installs fn to be called with the recovered value whenever
// user code panics and the executor contains it.
func (h *FaultHooks) SetPanicHandler(fn func(any)) { storeHook(&h.onPanic, fn) }

// NotifyCrash reports an abnormal goroutine death to the crash handler.
func (h *FaultHooks) NotifyCrash(reason any) { callHook(&h.onCrash, reason) }

// NotifyPanic reports a contained panic to the panic handler.
func (h *FaultHooks) NotifyPanic(v any) { callHook(&h.onPanic, v) }

func storeHook(p *atomic.Pointer[func(any)], fn func(any)) {
	if fn == nil {
		p.Store(nil)
		return
	}
	p.Store(&fn)
}

func callHook(p *atomic.Pointer[func(any)], v any) {
	if fn := p.Load(); fn != nil {
		(*fn)(v)
	}
}
