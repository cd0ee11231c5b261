package netloop

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gid"

	"repro/internal/testutil/leakcheck"

	"repro/internal/testutil/poll"
)

func waitCond(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	poll.UntilFor(t, d, msg, cond)
}

// TestClientDisconnectMidMessage: a client that vanishes after a partial
// line (no trailing newline) must still produce orderly dispatch — the
// partial message and then onClose, never a handler after onClose, and the
// client table must empty.
func TestClientDisconnectMidMessage(t *testing.T) {
	reg := &gid.Registry{}
	s := New("dispatch", reg)
	defer s.Stop()

	var mu sync.Mutex
	var events []string
	s.HandleFunc(func(c *Client, line string) {
		mu.Lock()
		events = append(events, "msg:"+line)
		mu.Unlock()
	})
	s.OnClose(func(c *Client) {
		mu.Lock()
		events = append(events, "close")
		mu.Unlock()
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "whole\npartial") // second message never terminated
	conn.Close()

	waitCond(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) > 0 && events[len(events)-1] == "close"
	}, "onClose dispatch")
	waitCond(t, 2*time.Second, func() bool { return s.ClientCount() == 0 }, "client table drain")

	mu.Lock()
	defer mu.Unlock()
	want := []string{"msg:whole", "msg:partial", "close"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v (handler after onClose?)", events, want)
		}
	}
}

// TestNoHandlerAfterOnCloseUnderLoad hammers the ordering invariant: for a
// client whose connection drops with messages still queued, every message
// handler must be dispatched before its onClose — FIFO on the loop is the
// guarantee, this is the regression test for it.
func TestNoHandlerAfterOnCloseUnderLoad(t *testing.T) {
	reg := &gid.Registry{}
	s := New("dispatch", reg)
	defer s.Stop()

	var mu sync.Mutex
	closed := map[int64]bool{}
	violations := 0
	s.HandleFunc(func(c *Client, line string) {
		time.Sleep(200 * time.Microsecond) // keep the queue nonempty
		mu.Lock()
		if closed[c.ID()] {
			violations++
		}
		mu.Unlock()
	})
	s.OnClose(func(c *Client) {
		mu.Lock()
		closed[c.ID()] = true
		mu.Unlock()
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const clients, msgs = 4, 25
	for i := 0; i < clients; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < msgs; m++ {
			fmt.Fprintf(conn, "c%d-m%d\n", i, m)
		}
		conn.Close() // queue still full of this client's messages
	}
	waitCond(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(closed) == clients
	}, "all onClose dispatched")

	mu.Lock()
	defer mu.Unlock()
	if violations != 0 {
		t.Fatalf("%d handlers ran after their client's onClose", violations)
	}
}

// TestStopWithQueuedHandlersNoLeak closes the listener while the dispatch
// queue is full of blocked handlers: Stop must return (no deadlock), queued
// handlers must not run after Stop returns, and the server's goroutines
// (accept loop, read loops, dispatch loop) must all exit — checked by
// goroutine counting since the repo carries no leak detector.
func TestStopWithQueuedHandlersNoLeak(t *testing.T) {
	defer leakcheck.Check(t)()
	before := runtime.NumGoroutine()

	reg := &gid.Registry{}
	s := New("dispatch", reg)

	gate := make(chan struct{})
	var handled sync.WaitGroup
	var mu sync.Mutex
	stopped := false
	lateHandlers := 0
	s.HandleFunc(func(c *Client, line string) {
		<-gate
		mu.Lock()
		if stopped {
			lateHandlers++
		}
		mu.Unlock()
		handled.Done()
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 10
	handled.Add(msgs)
	for m := 0; m < msgs; m++ {
		fmt.Fprintf(conn, "m%d\n", m)
	}
	waitCond(t, 2*time.Second, func() bool { return s.Messages() == msgs }, "messages read")
	conn.Close()

	// Stop while the first handler blocks on the gate and the rest queue
	// behind it. Stop drains the loop, so it cannot finish until the gate
	// opens — open it from the side once Stop is observably in flight.
	stopDone := make(chan struct{})
	go func() { s.Stop(); close(stopDone) }()
	poll.UntilBlockedIn(t, "netloop.(*Server).Stop")
	close(gate)
	select {
	case <-stopDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop deadlocked with handlers queued")
	}
	handled.Wait() // every accepted message was dispatched, none abandoned mid-queue
	mu.Lock()
	stopped = true
	mu.Unlock()

	// The goroutine count must settle back to where it started — and once
	// every server goroutine has exited, nothing is left that could run a
	// handler, so the late-handler check after the drain is exhaustive.
	waitCond(t, 2*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	}, "goroutines to drain")
	mu.Lock()
	late := lateHandlers
	mu.Unlock()
	if late != 0 {
		t.Fatalf("%d handlers ran after Stop returned", late)
	}
}
