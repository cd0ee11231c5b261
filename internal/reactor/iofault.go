package reactor

import (
	"errors"
	"time"
)

// The IO interceptor is the reactor's fd-level chaos seam: it sits between
// the poll loop's drain routines and the read/write syscalls, so injected
// faults exercise exactly the code paths hostile networks do — short writes
// spill into the pending queue, spurious EAGAIN consumes an edge and stalls
// the connection until more bytes arrive (or a deadline reaps it), and an
// injected reset travels the same error path as a kernel ECONNRESET.

// IOOp identifies which syscall an IO fault decision applies to.
type IOOp int

// The intercepted IO operations.
const (
	IORead IOOp = iota
	IOWrite
)

// String names the op.
func (o IOOp) String() string {
	if o == IOWrite {
		return "write"
	}
	return "read"
}

// IOFault is an injected fd-level failure mode.
type IOFault int

const (
	// IONone performs the operation untouched.
	IONone IOFault = iota
	// IOShort truncates the operation to one byte: a short write spills
	// the remainder into the pending queue; a short read re-enters the
	// drain loop.
	IOShort
	// IOAgain reports EAGAIN without touching the socket. Under
	// edge-triggered registration a swallowed read edge stalls the
	// connection until new bytes arrive — the fault deadlines exist for.
	IOAgain
	// IOReset fails the operation with ErrInjectedReset, modelling a
	// peer reset (ECONNRESET); the connection is torn down.
	IOReset
	// IODelay sleeps the returned duration before performing the
	// operation — injected read latency, stalling the poll loop the way
	// a slow disk or an overloaded host does.
	IODelay
)

// String names the fault.
func (f IOFault) String() string {
	switch f {
	case IONone:
		return "none"
	case IOShort:
		return "short"
	case IOAgain:
		return "again"
	case IOReset:
		return "reset"
	case IODelay:
		return "delay"
	default:
		return "unknown"
	}
}

// IOInterceptor decides a fault for one IO operation on one descriptor.
// The duration is only meaningful for IODelay. chaos.Injector.FDInterceptor
// adapts the seeded rule engine to this seam.
type IOInterceptor func(op IOOp, fd int) (IOFault, time.Duration)

// ErrInjectedReset is the error an IOReset fault fails the operation with.
var ErrInjectedReset = errors.New("reactor: injected connection reset")

// errInjectedAgain makes an IOAgain fault indistinguishable from a kernel
// EAGAIN to the drain loops (isWouldBlock folds it in) without depending
// on syscall errnos in platform-independent code.
var errInjectedAgain = errors.New("reactor: injected EAGAIN")

// SetIOInterceptor installs (or, with nil, removes) the fd-level fault
// seam. Takes effect for subsequent reads and writes on every connection.
func (r *Reactor) SetIOInterceptor(fn IOInterceptor) {
	if fn == nil {
		r.ioInterceptor.Store(nil)
		return
	}
	r.ioInterceptor.Store(&fn)
}

// ioFault consults the interceptor for one operation; IONone when no
// interceptor is installed.
func (r *Reactor) ioFault(op IOOp, fd int) (IOFault, time.Duration) {
	p := r.ioInterceptor.Load()
	if p == nil || *p == nil {
		return IONone, 0
	}
	return (*p)(op, fd)
}

// ioRead is sysRead behind the fault seam. asked is the length handed to
// the kernel (IOShort shrinks it): readDrain stops at n < asked.
func (r *Reactor) ioRead(fd int, p []byte) (n, asked int, err error) {
	switch f, d := r.ioFault(IORead, fd); f {
	case IOAgain:
		return 0, 0, errInjectedAgain
	case IOReset:
		return 0, 0, ErrInjectedReset
	case IODelay:
		time.Sleep(d)
	case IOShort:
		if len(p) > 1 {
			p = p[:1]
		}
	}
	n, err = sysRead(fd, p)
	return n, len(p), err
}

// ioWrite is sysWrite behind the fault seam.
func (r *Reactor) ioWrite(fd int, p []byte) (int, error) {
	switch f, d := r.ioFault(IOWrite, fd); f {
	case IOAgain:
		return 0, errInjectedAgain
	case IOReset:
		return 0, ErrInjectedReset
	case IODelay:
		time.Sleep(d)
	case IOShort:
		if len(p) > 1 {
			p = p[:1]
		}
	}
	return sysWrite(fd, p)
}

// isWouldBlock treats an injected EAGAIN exactly like a kernel one.
func isWouldBlock(err error) bool {
	return err == errInjectedAgain || wouldBlock(err)
}
