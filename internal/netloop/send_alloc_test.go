package netloop

import (
	"bufio"
	"net"
	"strings"
	"testing"

	"repro/internal/gid"
	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/raceflag"
)

// TestReactorEchoRoundTripAllocs pins the heap objects of one line's trip
// through each transport: the line's string and the loop's Completion of the
// post. The post's body is the client's delivery closure, bound once at
// accept, and its queue node comes from the loop's free list. On the reactor
// Send frames a reply of up to 256 bytes (newline included) on its stack; a
// longer one costs the buffer it always did. The goroutine transport frames
// every reply in the client's own buffer, reused under its write lock.
func TestReactorEchoRoundTripAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, tr := range []struct {
		name  string
		build func(t *testing.T) *Server
		want  [4]float64 // per line size below
	}{
		{"reactor", func(t *testing.T) *Server { return newReactorServer(t, "allocs") }, [4]float64{2, 2, 3, 3}},
		{"goroutine", func(t *testing.T) *Server { return New("allocs", &gid.Registry{}) }, [4]float64{2, 2, 2, 2}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			s := tr.build(t)
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
			for i, size := range []int{64, 255, 256, 600} {
				line := []byte(strings.Repeat("x", size) + "\n")
				got := testing.AllocsPerRun(500, func() {
					if _, err := conn.Write(line); err != nil {
						t.Fatal(err)
					}
					if _, err := rd.ReadSlice('\n'); err != nil {
						t.Fatal(err)
					}
				})
				if got != tr.want[i] {
					t.Errorf("%d-byte line: %v heap objects per round trip, want %v", size, got, tr.want[i])
				}
			}
		})
	}
}
