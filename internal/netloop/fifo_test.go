package netloop

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventloop"
)

// TestPerConnectionFIFOCannotDesync: a client's posts all carry one delivery
// closure that pops the client's oldest pending line, so every panic or
// interleaving must keep one push per post and one pop per dispatch. Two
// connections interleave 1000 lines each, with a plain handler and with one
// that panics on every 5th line it is handed (after recording which line it
// was). Every handled line is the client's own and arrives in order, the
// counters balance, and once the connections are idle no client's queue
// references a line — nor after a stopped loop has rejected the posts of ten
// more lines per connection, each of which Dropped counts.
func TestPerConnectionFIFOCannotDesync(t *testing.T) {
	const conns, lines = 2, 1000
	const total = conns * lines
	for _, tc := range []struct {
		name  string
		every int64 // the handler panics on every every-th line; 0: never
	}{
		{name: "plain"},
		{name: "panic5", every: 5},
	} {
		var wantPanics int64
		if tc.every > 0 {
			wantPanics = total / tc.every
		}
		t.Run(tc.name, func(t *testing.T) {
			eachTransport(t, func(t *testing.T, s *Server) {
				defer s.Stop()

				// Confined to the dispatch loop: the handler and the observer
				// run there; the test reads them after InvokeAndWait.
				type record struct {
					line     string
					panicked bool
				}
				seen := map[*Client][]record{}
				var n int64
				var settled, panics atomic.Int64
				s.Loop().SetObserver(func(d eventloop.DispatchInfo) {
					if d.Label != "msg" {
						return
					}
					if d.Err != nil {
						panics.Add(1)
					}
					settled.Add(1)
				})
				s.HandleFunc(func(c *Client, line string) {
					n++
					panicking := tc.every > 0 && n%tc.every == 0
					seen[c] = append(seen[c], record{line, panicking})
					if panicking {
						panic("injected")
					}
				})
				addr, err := s.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				var cs []net.Conn
				for i := 0; i < conns; i++ {
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						t.Fatal(err)
					}
					defer conn.Close()
					cs = append(cs, conn)
				}
				for m := 0; m < lines; m++ {
					for i, conn := range cs {
						if _, err := fmt.Fprintf(conn, "%c-%d\n", 'a'+i, m); err != nil {
							t.Fatal(err)
						}
					}
				}
				waitCond(t, 10*time.Second, func() bool {
					return s.Messages() == total && settled.Load() == total
				}, fmt.Sprintf("%d lines dispatched", total))
				var idle []*Client
				if err := s.Loop().InvokeAndWait(func() {
					for c := range seen {
						idle = append(idle, c)
					}
				}); err != nil {
					t.Fatal(err)
				}

				if len(seen) != conns {
					t.Fatalf("lines reached %d clients, want %d", len(seen), conns)
				}
				var handled, panicked int64
				for c, recs := range seen {
					tag, last := "", -1
					for _, r := range recs {
						prefix, num, _ := strings.Cut(r.line, "-")
						seq, err := strconv.Atoi(num)
						if err != nil {
							t.Fatalf("client %d was handed %q", c.ID(), r.line)
						}
						if tag == "" {
							tag = prefix
						}
						if prefix != tag || seq <= last {
							t.Fatalf("client %d was handed %q after line %s-%d", c.ID(), r.line, tag, last)
						}
						last = seq
						if r.panicked {
							panicked++
						} else {
							handled++
						}
					}
					if len(recs) != lines || last != lines-1 {
						t.Fatalf("client %d handled %d lines ending at %d, want all %d", c.ID(), len(recs), last, lines)
					}
				}
				if handled != total-wantPanics || panicked != wantPanics {
					t.Errorf("handled %d lines and %d panicking ones, want %d and %d", handled, panicked, total-wantPanics, wantPanics)
				}
				if d, p := s.Dropped(), panics.Load(); d != 0 || p != wantPanics {
					t.Errorf("Dropped = %d, panicked dispatches = %d, want 0 and %d", d, p, wantPanics)
				}
				checkIdle := func(when string) {
					t.Helper()
					for _, c := range idle {
						c.pending.mu.Lock()
						n, buf := c.pending.n, c.pending.buf
						for i, line := range buf {
							if line != "" {
								t.Errorf("%s: client %d: queue slot %d still holds %q", when, c.ID(), i, line)
							}
						}
						c.pending.mu.Unlock()
						if n != 0 {
							t.Errorf("%s: client %d: %d messages pending", when, c.ID(), n)
						}
					}
				}
				checkIdle("idle connection")

				// A stopped loop rejects every further post: the line it would
				// have delivered is taken back off the queue and counted.
				s.Loop().Stop()
				const late = 10
				for m := lines; m < lines+late; m++ {
					for i, conn := range cs {
						if _, err := fmt.Fprintf(conn, "%c-%d\n", 'a'+i, m); err != nil {
							t.Fatal(err)
						}
					}
				}
				// A connection leaves the client table after the goroutine that
				// reads it has handled its last line, so an empty table means
				// every late line is through.
				for _, conn := range cs {
					conn.Close()
				}
				waitCond(t, 10*time.Second, func() bool { return s.ClientCount() == 0 }, "clients gone")
				if got, want := s.Messages(), int64(total+conns*late); got != want {
					t.Fatalf("Messages = %d, want %d", got, want)
				}
				checkIdle("rejected posts")
				if got, want := s.Dropped(), int64(conns*late); got != want {
					t.Errorf("Dropped = %d after the stopped loop rejected %d lines, want %d", got, want, want)
				}
			})
		})
	}
}
