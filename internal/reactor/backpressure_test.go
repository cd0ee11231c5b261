//go:build linux

// Backpressure tests need a kernel hook (setSndbuf, hooks_unix_test.go) to
// make a send buffer small enough to jam, so they run where the poller does.
package reactor

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
)

// pendingLen reads c's count of spilled bytes awaiting a writability edge —
// the live backpressure measure — under the write lock that guards it.
func pendingLen(c *Conn) int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.pendingLen
}

// TestSendBufferFullBackpressure fills a deliberately tiny kernel send
// buffer while the peer refuses to read: writes must spill into the
// per-connection pending queue instead of blocking, drain on writability
// edges once the peer resumes, and fire OnDrained when the queue empties.
// The client is a plain blocking net.Conn (not reactor-registered) so the
// test controls exactly when the peer reads.
func TestSendBufferFullBackpressure(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "bp")
	defer r.Stop()

	drained := make(chan struct{}, 1)
	accepted := make(chan *Conn, 1)
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		accepted <- c
		return HandlerFuncs{
			OnDrained: func(c *Conn) {
				select {
				case drained <- struct{}{}:
				default:
				}
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-accepted

	// Shrink the server's send buffer so a few tens of KB jams it while the
	// idle client's receive buffer fills.
	if err := setSndbuf(srv.fd, 4096); err != nil {
		t.Fatal(err)
	}
	payload := []byte(strings.Repeat("x", 32<<10))
	total := 0
	for i := 0; i < 256 && pendingLen(srv) == 0; i++ {
		if err := srv.Write(payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		total += len(payload)
	}
	if pendingLen(srv) == 0 {
		t.Fatal("kernel buffers swallowed everything; backpressure never engaged")
	}
	if r.Stats().PartialWrites == 0 {
		t.Fatal("PartialWrites counter not incremented")
	}

	// Resume the reader; the pending queue must drain through writability
	// edges and every byte must arrive intact.
	got := make(chan error, 1)
	go func() {
		_, err := io.CopyN(io.Discard, cli, int64(total))
		got <- err
	}()
	poll.Until(t, "pending queue drained", func() bool { return pendingLen(srv) == 0 })
	poll.Until(t, "OnDrained fired", func() bool {
		select {
		case <-drained:
			return true
		default:
			return false
		}
	})
	if err := <-got; err != nil {
		t.Fatalf("client read: %v", err)
	}
	if r.Stats().WriteEvents == 0 {
		t.Fatal("no writability edges dispatched")
	}
}

// TestDrainFlushesSpilledWritesBeforeClosing: a drain must not drop bytes
// already accepted into the pending queue — with a peer that resumes
// reading, everything flushes out before the close fires, and nothing is
// force-closed.
func TestDrainFlushesSpilledWritesBeforeClosing(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "drainflush")

	accepted := make(chan *Conn, 1)
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		accepted <- c
		return HandlerFuncs{}
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	conn := <-accepted
	if err := setSndbuf(conn.fd, 4096); err != nil {
		t.Fatal(err)
	}

	payload := []byte(strings.Repeat("y", 32<<10))
	total := 0
	for i := 0; i < 256 && pendingLen(conn) == 0; i++ {
		if err := conn.Write(payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		total += len(payload)
	}
	if pendingLen(conn) == 0 {
		t.Fatal("kernel buffers swallowed everything; nothing spilled to flush")
	}

	// Reader drains concurrently with the drain: every accepted byte must
	// arrive before the connection closes.
	got := make(chan int64, 1)
	go func() {
		n, _ := io.Copy(io.Discard, cli)
		got <- n
	}()
	r.Drain(30 * time.Second)
	if n := <-got; n != int64(total) {
		t.Fatalf("peer received %d bytes, want %d", n, total)
	}
	if fc := r.Stats().ForceCloses; fc != 0 {
		t.Fatalf("ForceCloses = %d, want 0 (queue was flushable)", fc)
	}
}

// TestDrainForceClosesStragglers: a jammed connection that cannot flush by
// the drain deadline is force-closed (counted) instead of pinning the
// shutdown forever.
func TestDrainForceClosesStragglers(t *testing.T) {
	defer leakcheck.Check(t)()
	r := newTestReactor(t, "drainforce")

	accepted := make(chan *Conn, 1)
	addr, err := r.Listen("127.0.0.1:0", func(c *Conn) HandlerFuncs {
		accepted <- c
		return HandlerFuncs{}
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	conn := <-accepted
	if err := setSndbuf(conn.fd, 4096); err != nil {
		t.Fatal(err)
	}
	payload := []byte(strings.Repeat("z", 32<<10))
	for i := 0; i < 32; i++ { // 1 MiB: far past both clamped kernel buffers
		if err := conn.Write(payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if pendingLen(conn) == 0 {
		t.Fatal("kernel buffers swallowed everything; no straggler to force")
	}

	start := time.Now()
	r.Drain(100 * time.Millisecond) // peer never reads: deadline must fire
	if e := time.Since(start); e > 10*time.Second {
		t.Fatalf("drain took %v; force-close deadline did not bound it", e)
	}
	if fc := r.Stats().ForceCloses; fc != 1 {
		t.Fatalf("ForceCloses = %d, want 1", fc)
	}
}
