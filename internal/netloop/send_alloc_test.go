package netloop

import (
	"bufio"
	"net"
	"strings"
	"testing"

	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/raceflag"
)

// TestReactorEchoRoundTripAllocs pins the heap objects of one line's trip
// through the reactor transport: the line's string and the loop's Completion
// of the post. The post's body is the client's delivery closure, bound once
// at accept, and its queue node comes from the loop's free list. Send frames a reply of up to 256 bytes (newline included) on its
// stack; a longer one costs the buffer it always did.
func TestReactorEchoRoundTripAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	defer leakcheck.Check(t)()
	s := newReactorServer(t, "allocs")
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
	rd := bufio.NewReaderSize(conn, 1024)
	for _, tc := range []struct {
		size int
		want float64
	}{{64, 2}, {255, 2}, {256, 3}, {600, 3}} {
		line := []byte(strings.Repeat("x", tc.size) + "\n")
		got := testing.AllocsPerRun(500, func() {
			if _, err := conn.Write(line); err != nil {
				t.Fatal(err)
			}
			if _, err := rd.ReadSlice('\n'); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("%d-byte line: %v heap objects per round trip, want %v", tc.size, got, tc.want)
		}
	}
}
