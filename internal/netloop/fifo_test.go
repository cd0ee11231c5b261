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
	"repro/internal/qos"
)

// TestPerConnectionFIFOCannotDesync: a client's posts all carry one delivery
// closure that pops the client's oldest pending line, so every drop, panic or
// interleaving must keep one push per post and one pop per dispatch. Two
// connections interleave 1000 lines each behind a four-slot limiter, with no
// interceptor and with one that drops every 3rd message and panics inside the
// wrapper of every 5th (after letting the handler see which line it carried).
// Every handled line is the client's own and arrives in order, the counters
// and the limiter balance with every slot back, and once the connections are
// idle no client's queue references a line — nor after a stopped loop has
// rejected the posts of ten more lines per connection.
func TestPerConnectionFIFOCannotDesync(t *testing.T) {
	const conns, lines, slots = 2, 1000, 4
	const total = conns * lines
	for _, tc := range []struct {
		name             string
		faults           bool
		dropped, panics  int64
		handledPerClient int // 0: not fixed
	}{
		{name: "plain", handledPerClient: lines},
		// Of the messages 1..2000 in interception order, multiples of 3 are
		// dropped and the other multiples of 5 panic.
		{name: "drop3-panic5", faults: true, dropped: total / 3, panics: total/5 - total/15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachTransport(t, func(t *testing.T, s *Server) {
				defer s.Stop()
				lim := qos.NewLimiter("dispatch", slots, -1, qos.TimeoutAfter(time.Hour))
				s.UseLimiter(lim)

				// Confined to the dispatch loop: the handler, the wrappers and
				// the observer all run there; the test reads them after
				// InvokeAndWait.
				type record struct {
					line     string
					panicked bool
				}
				seen := map[*Client][]record{}
				probing := false
				var settled, panics atomic.Int64
				if tc.faults {
					var n atomic.Int64
					s.SetInterceptor(func(_ string, fn func()) (func(), bool) {
						switch k := n.Add(1); {
						case k%3 == 0:
							return nil, false
						case k%5 == 0:
							return func() {
								probing = true
								fn()
								probing = false
								panic("injected")
							}, true
						}
						return fn, true
					})
				}
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
					seen[c] = append(seen[c], record{line, probing})
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
					return s.Messages() == total && settled.Load()+s.Dropped() == total
				}, fmt.Sprintf("%d lines dispatched or dropped", total))
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
				var handled, probed int64
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
							probed++
						} else {
							handled++
						}
					}
					if n := tc.handledPerClient; n > 0 && (len(recs) != n || last != n-1) {
						t.Fatalf("client %d handled %d lines ending at %d, want all %d", c.ID(), len(recs), last, n)
					}
				}
				if want := total - tc.dropped - tc.panics; handled != want || probed != tc.panics {
					t.Errorf("handled %d lines and %d panicking ones, want %d and %d", handled, probed, want, tc.panics)
				}
				if d, p := s.Dropped(), panics.Load(); d != tc.dropped || p != tc.panics {
					t.Errorf("Dropped = %d, panicked dispatches = %d, want %d and %d", d, p, tc.dropped, tc.panics)
				}
				if st := lim.Stats(); st.Admitted+s.Dropped() != total || st.Shed != 0 || st.Canceled != 0 {
					t.Errorf("limiter %+v and %d dropped do not account for %d messages", st, s.Dropped(), total)
				}
				takeSlots := func(when string) {
					t.Helper()
					for i := 0; i < slots; i++ {
						if !lim.TryAcquire() {
							t.Fatalf("%s: slot %d of %d still held", when, i+1, slots)
						}
					}
					for i := 0; i < slots; i++ {
						lim.Release()
					}
				}
				checkIdle := func(when string) {
					t.Helper()
					for _, c := range idle {
						c.pending.mu.Lock()
						n, buf := c.pending.n, c.pending.buf
						for i, m := range buf {
							if m.line != "" || m.wrapped != nil {
								t.Errorf("%s: client %d: queue slot %d still holds %q", when, c.ID(), i, m.line)
							}
						}
						c.pending.mu.Unlock()
						if n != 0 {
							t.Errorf("%s: client %d: %d messages pending", when, c.ID(), n)
						}
					}
				}
				takeSlots("after the loop drained")
				checkIdle("idle connection")

				// A stopped loop rejects every further post: the line it would
				// have delivered is taken back off the queue, with its slot.
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
				takeSlots("after rejected posts")
			})
		})
	}
}
