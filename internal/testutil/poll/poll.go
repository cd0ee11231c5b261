// Package poll centralizes condition waiting for the runtime's tests. The
// suites exercise genuinely asynchronous machinery — pool resizes, crash
// respawns, queue drains — where the assertion is "this becomes true
// promptly", not "this is true after N milliseconds". A bare time.Sleep
// encodes the latter and flakes on slow machines; these helpers poll with
// backoff under a generous deadline, so tests pass as fast as the runtime
// settles and fail only on a real hang.
package poll

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// DefaultDeadline bounds Until; it is deliberately much larger than any
// expected settle time, because it only matters when the test already lost.
const DefaultDeadline = 10 * time.Second

// Until polls cond until it returns true, failing t after DefaultDeadline.
// what names the condition in the failure message.
func Until(t testing.TB, what string, cond func() bool) {
	t.Helper()
	UntilFor(t, DefaultDeadline, what, cond)
}

// UntilFor is Until with an explicit deadline.
func UntilFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	if !Wait(d, cond) {
		t.Fatalf("poll: timed out after %v waiting for %s", d, what)
	}
}

// Wait polls cond until it returns true or d elapses, and reports whether
// the condition held. Use when the caller wants to decide what a timeout
// means (e.g. both outcomes are legal and only liveness is asserted).
func Wait(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	wait := 100 * time.Microsecond
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return cond()
		}
		time.Sleep(wait)
		if wait < 5*time.Millisecond {
			wait *= 2
		}
	}
}

// UntilBlockedIn waits until some goroutine's stack contains fn (a function
// name substring such as "(*WorkerPool).WaitPending"). It replaces the classic
// "sleep so the goroutine reaches its blocking point" idiom with a
// deterministic observation of the scheduler state.
func UntilBlockedIn(t testing.TB, fn string) {
	t.Helper()
	Until(t, "a goroutine to block in "+fn, func() bool {
		return strings.Contains(allStacks(), fn)
	})
}

func allStacks() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}
