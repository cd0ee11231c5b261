package reactor

// pollEvent is one readiness report from the platform poller.
type pollEvent struct {
	fd       int
	readable bool
	writable bool
	hup      bool // peer hung up / error condition on the descriptor
}

// poller abstracts the platform readiness facility (epoll on linux). All
// registrations are edge-triggered: an event is reported once per edge and
// the caller must drain the descriptor (see readDrain for what counts as
// drained).
//
// add/mod/del/wake are safe from any goroutine (the kernel serializes
// them); wait is called only by the poll goroutine.
type poller interface {
	// add registers fd for readability edges, plus writability when w.
	add(fd int, w bool) error
	// mod updates fd's writability interest.
	mod(fd int, w bool) error
	// del removes fd.
	del(fd int) error
	// wait blocks for events, filling evs, for at most timeoutMs
	// milliseconds (-1 blocks indefinitely; 0 polls). A timer-driven
	// return reports n == 0. woken reports a wake() call (the wakeup
	// channel is drained internally). A non-nil error means the poller is
	// closed and the loop must exit.
	wait(evs []pollEvent, timeoutMs int) (n int, woken bool, err error)
	// wake interrupts a concurrent wait once.
	wake()
	// close releases the poller's descriptors.
	close()
}
