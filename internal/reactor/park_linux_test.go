//go:build linux

package reactor

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gid"
	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
)

// An idle linux reactor is a parked goroutine, not a thread blocked in
// epoll_wait: these tests look at what the process holds while reactors
// idle, and at the one configuration a thread-blocking wait cannot serve.

// osThreads reads the process's thread count from /proc/self/status.
func osThreads(t *testing.T) int {
	t.Helper()
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skip("no /proc/self/status:", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "Threads:"); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Skip("no Threads: line in /proc/self/status")
	return 0
}

// pollLoopStacks returns the stack of every goroutine inside pollLoop.
func pollLoopStacks() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("(*Reactor).pollLoop")) {
			out = append(out, string(g))
		}
	}
	return out
}

// TestIdleReactorsParkAndPinNoThreads: every idle poll goroutine's stack
// ends in the runtime's netpoller and nowhere in epoll_wait, so the reactors
// hold no OS thread — a wait that blocks in the kernel costs one each.
func TestIdleReactorsParkAndPinNoThreads(t *testing.T) {
	defer leakcheck.Check(t)()
	const reactors, slack = 32, 4
	before := osThreads(t)
	for i := 0; i < reactors; i++ {
		defer newTestReactor(t, "idle").Stop()
	}
	// Every loop parked: the count below is of threads held while idle,
	// not of threads passing through start-up.
	var idle []string
	poll.Until(t, "every poll goroutine to park on the netpoller", func() bool {
		idle = pollLoopStacks()
		for _, g := range idle {
			if !strings.Contains(g, "internal/poll.runtime_pollWait") {
				return false
			}
		}
		return len(idle) == reactors
	})
	for _, g := range idle {
		if strings.Contains(g, "syscall.EpollWait") {
			t.Fatalf("parked inside epoll_wait:\n%s", g)
		}
	}
	if grew := osThreads(t) - before; grew > slack {
		t.Fatalf("%d idle reactors hold %d more OS threads, want none (slack %d)", reactors, grew, slack)
	}
}

// TestOneProcEveryEntryPointReturns: with one P, a poll goroutine that
// holds it inside a blocking wait starves whoever it just woke until sysmon
// steps in. Parked, it cannot: an echo conversation and every cross-
// goroutine entry point complete.
func TestOneProcEveryEntryPointReturns(t *testing.T) {
	defer leakcheck.Check(t)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r, err := New("oneproc", &gid.Registry{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	addr, err := r.Listen("127.0.0.1:0", func(*Conn) HandlerFuncs {
		return HandlerFuncs{OnReadable: func(c *Conn, data []byte) { c.Write(data) }}
	})
	if err != nil {
		t.Fatal(err)
	}
	echoed := make(chan struct{}, 1)
	c, err := r.Dial(addr, HandlerFuncs{OnReadable: func(*Conn, []byte) { echoed <- struct{}{} }})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := c.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		<-echoed
	}

	posted := make(chan struct{})
	if err := r.Post(func() { close(posted) }); err != nil {
		t.Fatal(err)
	}
	<-posted
	fired := make(chan struct{})
	if err := postAt(r, time.Now().Add(2*time.Millisecond), func() { close(fired) }); err != nil {
		t.Fatal(err)
	}
	<-fired // timer-driven return of a parked wait
	r.Drain(time.Second)
	r.Stop()

	r2, err := New("oneproc-stop", &gid.Registry{})
	if err != nil {
		t.Fatal(err)
	}
	r2.Stop() // Stop of a loop that never saw an event
}
