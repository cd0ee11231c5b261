package executor

import "sync/atomic"

// FaultHooks is the crash/panic notification pair of an executor that runs
// user code on goroutines it owns. WorkerPool, eventloop.Loop and
// reactor.Reactor embed it, so the two setters exist once and the promoted
// methods are what package supervise attaches through. A handler may be
// installed, replaced or removed (nil) at any time from any goroutine; a
// notification calls whichever handler is installed at that moment, on the
// goroutine that detected the fault — keep handlers non-blocking. A crash
// nobody was installed to hear is held for the next crash handler: an
// executor that dies between a supervisor's factory call and its attach
// must not stay down unnoticed.
type FaultHooks struct {
	onCrash atomic.Pointer[func(any)]
	onPanic atomic.Pointer[func(any)]
	missed  atomic.Pointer[any] // the latest unheard crash
}

// SetCrashHandler installs fn to be called when a goroutine of the executor
// dies abnormally (runtime.Goexit in user code, or a panic that escaped
// recovery). The argument is the escaped panic value, nil for a plain Goexit.
func (h *FaultHooks) SetCrashHandler(fn func(any)) {
	storeHook(&h.onCrash, fn)
	h.deliverMissed()
}

// SetPanicHandler installs fn to be called with the recovered value whenever
// user code panics and the executor contains it.
func (h *FaultHooks) SetPanicHandler(fn func(any)) { storeHook(&h.onPanic, fn) }

// NotifyCrash reports an abnormal goroutine death to the crash handler.
func (h *FaultHooks) NotifyCrash(reason any) {
	if fn := h.onCrash.Load(); fn != nil {
		(*fn)(reason)
		return
	}
	h.missed.Store(&reason)
	h.deliverMissed()
}

// deliverMissed hands the held crash to the installed handler. Notifier and
// installer both store first and look second, so one of them finds both;
// the swap lets only one deliver.
func (h *FaultHooks) deliverMissed() {
	if fn := h.onCrash.Load(); fn != nil {
		if v := h.missed.Swap(nil); v != nil {
			(*fn)(*v)
		}
	}
}

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
