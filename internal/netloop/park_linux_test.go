//go:build linux

package netloop

import (
	"bufio"
	"net"
	"runtime"
	"testing"

	"repro/internal/testutil/leakcheck"
)

// TestReactorEchoOnOneProc: with a single P the reactor's poll goroutine and
// the dispatch loop it posts to take turns on it. A poll goroutine that
// blocked its thread in epoll_wait would keep the P from the loop it just
// woke for as long as sysmon lets it, on every line; parked on the
// netpoller it hands the P over, and 10 000 round trips are over in a blink.
func TestReactorEchoOnOneProc(t *testing.T) {
	defer leakcheck.Check(t)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := newReactorServer(t, "oneproc")
	defer s.Stop()
	s.HandleFunc(func(c *Client, line string) { c.Send(line) })
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	line := []byte("the quick brown fox jumps over the lazy dog, 64 bytes in all...\n")
	const trips = 10000
	for i := 0; i < trips; i++ {
		if _, err := conn.Write(line); err != nil {
			t.Fatal(err)
		}
		got, err := rd.ReadSlice('\n')
		if err != nil || string(got) != string(line) {
			t.Fatalf("round trip %d: %q, %v", i, got, err)
		}
	}
	if got := s.Messages(); got != trips {
		t.Fatalf("Messages = %d, want %d", got, trips)
	}
}
