package executor

import "sync/atomic"

// FaultHooks is the crash notification of an executor that runs user code on
// goroutines it owns. WorkerPool embeds it — and eventloop.Loop, a pool of
// one, has it through the pool — so the setter exists once and the promoted
// method is what package supervise attaches through. A handler may be
// installed, replaced or removed (nil) at any time from any goroutine; a
// notification calls whichever handler is installed at that moment, on the
// goroutine that detected the fault — keep handlers non-blocking. A crash
// nobody was installed to hear is held for the next crash handler: a worker
// that dies before a supervisor installs its handler must not stay down
// unnoticed. A contained task panic is not a crash: it is reported through
// the task's Completion only.
type FaultHooks struct {
	onCrash atomic.Pointer[func(any)]
	missed  atomic.Pointer[any] // the latest unheard crash
}

// SetCrashHandler installs fn to be called when a goroutine of the executor
// dies abnormally (runtime.Goexit in user code, or a panic that escaped
// recovery). The argument is the escaped panic value, nil for a plain Goexit.
func (h *FaultHooks) SetCrashHandler(fn func(any)) {
	if fn == nil {
		h.onCrash.Store(nil)
	} else {
		h.onCrash.Store(&fn)
	}
	h.deliverMissed()
}

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
