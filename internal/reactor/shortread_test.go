package reactor

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
)

// The drain contract after the short-read rule: a connection is read until a
// read returns less than it asked for (or EAGAIN/EOF), and every byte of an
// edge is delivered, in order, before any close.

// countReads installs an interceptor that counts read(2) attempts and
// injects fault on each of them.
func countReads(r *Reactor, fault IOFault) *atomic.Int64 {
	var reads atomic.Int64
	r.SetIOInterceptor(func(op IOOp, fd int) (IOFault, time.Duration) {
		if op == IORead {
			reads.Add(1)
			return fault, 0
		}
		return IONone, 0
	})
	return &reads
}

// quiesce returns once the poll goroutine is past the batch it was in: a
// Post runs after it, so counters the batch moved are final.
func quiesce(t *testing.T, r *Reactor) {
	t.Helper()
	done := make(chan struct{})
	if err := r.Post(func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	<-done
}

// listenCollect accepts connections into srv.
func listenCollect(t *testing.T, r *Reactor, srv *collector) string {
	t.Helper()
	addr, err := r.Listen("127.0.0.1:0", func(*Conn) HandlerFuncs { return srv.handlers() })
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestPayloadLargerThanScratchDeliveredWhole: full read → keep reading →
// short read → stop, over as many edges as the kernel makes of it.
func TestPayloadLargerThanScratchDeliveredWhole(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "big")
	defer r.Stop()
	var srv collector
	addr := listenCollect(t, r, &srv)
	payload := make([]byte, 4*len(r.readBuf)+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	cli, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Write(payload); err != nil {
		t.Fatal(err)
	}
	poll.Until(t, "whole payload", func() bool { return len(srv.String()) >= len(payload) })
	if !bytes.Equal([]byte(srv.String()), payload) {
		t.Fatal("payload reordered or corrupted on the way through the scratch buffer")
	}
}

// TestReadsPerEvent counts read(2) calls against what one edge needs. The
// scratch buffer is shrunk to 16 bytes (on the poll goroutine, whose state
// it is) so that one loopback segment exercises every exit of the drain.
func TestReadsPerEvent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fault   IOFault
		payload int
		reads   int64
	}{
		{"short read ends the drain", IONone, 5, 1},                    // 2 when every drain ran to EAGAIN
		{"full reads go on to a short one", IONone, 3*16 + 8, 4},       // 16+16+16+8
		{"exact multiple needs the EAGAIN", IONone, 2 * 16, 3},         // 16+16+EAGAIN
		{"IOShort asks for one byte and loops", IOShort, 5, 5 + 1},     // 1×5+EAGAIN
		{"IOShort past the scratch size", IOShort, 16 + 3, 16 + 3 + 1}, // still one byte each
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			r := newTestReactor(t, "reads")
			defer r.Stop()
			var srv collector
			addr := listenCollect(t, r, &srv)
			if err := r.Post(func() { r.readBuf = r.readBuf[:16] }); err != nil {
				t.Fatal(err)
			}
			cli, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			poll.Until(t, "accept", func() bool { return r.Stats().Accepted == 1 })
			reads := countReads(r, tc.fault)
			payload := bytes.Repeat([]byte("0123456789abcdef"), 8)[:tc.payload]
			if _, err := cli.Write(payload); err != nil { // one segment, one edge
				t.Fatal(err)
			}
			poll.Until(t, "payload", func() bool { return srv.String() == string(payload) })
			quiesce(t, r)
			if ev := r.Stats().ReadEvents; ev != 1 {
				t.Skipf("kernel reported %d edges for one segment; the per-event count needs 1", ev)
			}
			if got := reads.Load(); got != tc.reads {
				t.Fatalf("read calls for one edge of %d bytes = %d, want %d", tc.payload, got, tc.reads)
			}
		})
	}
}

// TestWriteThenCloseDeliversBytesBeforeEOF: whether the FIN rides the same
// edge as the data (a short read, then the hup flag) or its own (a read of
// zero), OnClose(io.EOF) comes after every byte.
func TestWriteThenCloseDeliversBytesBeforeEOF(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "fin")
	defer r.Stop()
	const msg = "last words"
	var (
		mu     sync.Mutex
		closes []string // bytes delivered before each OnClose
		errs   []error
	)
	addr, err := r.Listen("127.0.0.1:0", func(*Conn) HandlerFuncs {
		var buf []byte // poll-confined
		return HandlerFuncs{
			OnReadable: func(c *Conn, data []byte) { buf = append(buf, data...) },
			OnClose: func(c *Conn, err error) {
				mu.Lock()
				closes = append(closes, string(buf))
				errs = append(errs, err)
				mu.Unlock()
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	const conns = 40
	for i := 0; i < conns; i++ {
		cli, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		cli.Close()
	}
	poll.Until(t, "every close", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(closes) == conns
	})
	for i := range closes {
		if closes[i] != msg || !errors.Is(errs[i], io.EOF) {
			t.Fatalf("conn %d closed with %v after %q, want io.EOF after %q", i, errs[i], closes[i], msg)
		}
	}
}
