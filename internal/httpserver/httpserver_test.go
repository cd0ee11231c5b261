package httpserver

import (
	"bufio"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/testutil/leakcheck"
	"repro/internal/testutil/poll"
	"repro/internal/testutil/raceflag"
	"repro/internal/workload"
)

func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	base, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s, NewClient(base)
}

func TestJettyServesRequests(t *testing.T) {
	s, c := startServer(t, Config{Mode: Jetty, Workers: 2, KernelBytes: 4096})
	sum, err := c.Encrypt(0)
	if err != nil {
		t.Fatal(err)
	}
	if sum <= 0 {
		t.Fatalf("checksum = %d", sum)
	}
	if s.Served() != 1 {
		t.Fatalf("Served = %d", s.Served())
	}
}

func TestPyjamaServesRequests(t *testing.T) {
	s, c := startServer(t, Config{Mode: Pyjama, Workers: 2, KernelBytes: 4096})
	sum, err := c.Encrypt(0)
	if err != nil {
		t.Fatal(err)
	}
	if sum <= 0 {
		t.Fatalf("checksum = %d", sum)
	}
	if s.Served() != 1 {
		t.Fatalf("Served = %d", s.Served())
	}
}

func TestBothModesAgreeOnResult(t *testing.T) {
	// The kernel is deterministic, so Jetty and Pyjama must return the
	// same checksum for the same payload size.
	_, cj := startServer(t, Config{Mode: Jetty, Workers: 1, KernelBytes: 2048})
	_, cp := startServer(t, Config{Mode: Pyjama, Workers: 1, KernelBytes: 2048})
	a, err := cj.Encrypt(2048)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cp.Encrypt(2048)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("jetty %d != pyjama %d", a, b)
	}
}

func TestParallelKernelSameResult(t *testing.T) {
	_, seq := startServer(t, Config{Mode: Jetty, Workers: 1, OMPThreads: 1, KernelBytes: 8192})
	_, par := startServer(t, Config{Mode: Jetty, Workers: 1, OMPThreads: 4, KernelBytes: 8192})
	a, err := seq.Encrypt(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Encrypt(0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("sequential kernel %d != parallel kernel %d", a, b)
	}
}

// TestSizeParamValidation: a size that is not a positive integer, or that is
// above the package bound (a payload is 3 x size in memory), is refused with
// 400 before any path — Jetty, plain Pyjama or QoS — reaches compute.
func TestSizeParamValidation(t *testing.T) {
	bad := []string{"-3", "abc", strconv.Itoa(maxRequestBytes + 1), "1099511627776"}
	for name, cfg := range map[string]Config{
		"jetty":      {Mode: Jetty, Workers: 1, KernelBytes: 1024},
		"pyjama":     {Mode: Pyjama, Workers: 1, KernelBytes: 1024},
		"pyjama+qos": {Mode: Pyjama, Workers: 1, KernelBytes: 1024, QoS: &QoSConfig{QueueLimit: -1}},
	} {
		s, c := startServer(t, cfg)
		for _, q := range bad {
			resp, err := http.Get(c.base + "/encrypt?size=" + q)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s size=%s: status = %d, want 400", name, q, resp.StatusCode)
			}
		}
		if s.Errors() != int64(len(bad)) || s.Served() != 0 {
			t.Fatalf("%s: Errors=%d Served=%d, want %d/0", name, s.Errors(), s.Served(), len(bad))
		}
		if _, err := c.Encrypt(2048); err != nil {
			t.Fatalf("%s: a size under the bound failed after the refusals: %v", name, err)
		}
	}
}

func TestConcurrentLoadBothModes(t *testing.T) {
	for _, mode := range []Mode{Jetty, Pyjama} {
		s, c := startServer(t, Config{Mode: mode, Workers: 4, KernelBytes: 2048})
		users := &workload.VirtualUsers{Users: 16, RequestsPerUser: 5}
		var mu sync.Mutex
		var firstErr error
		users.Run(func(u, r int) {
			if _, err := c.Encrypt(0); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		})
		if firstErr != nil {
			t.Fatalf("%v: %v", mode, firstErr)
		}
		if got := s.Served(); got != int64(users.Total()) {
			t.Fatalf("%v: Served = %d, want %d", mode, got, users.Total())
		}
	}
}

func TestHealthz(t *testing.T) {
	_, c := startServer(t, Config{Mode: Jetty, Workers: 1})
	resp, err := http.Get(c.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestModeString(t *testing.T) {
	if Jetty.String() != "jetty" || Pyjama.String() != "pyjama" || Mode(9).String() != "unknown" {
		t.Fatal("mode names")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	cfg.fill()
	if cfg.Workers != 1 || cfg.KernelBytes != 64*1024 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

// TestPayloadIsRecycled: once warm, requests of both http_encrypt sizes run
// on the free list's payload and allocate nothing, across garbage collections
// too (a sync.Pool would be emptied by them); a payload above keptPayloadBytes
// is served with the right checksum and not kept. On the Pyjama path the
// worker runs the block bound to the payload, and the joined invocation posts
// with its recycled waiter node as the completion, so a request costs
// nothing: no Completion, no closure, no captured checksum, no reply buffer.
func TestPayloadIsRecycled(t *testing.T) {
	s, c := startServer(t, Config{Mode: Jetty, Workers: 1})
	big := keptPayloadBytes + 1
	want := kernels.NewCrypt(big)
	want.RunSeq()
	if sum, err := c.Encrypt(big); err != nil || sum != want.Checksum() {
		t.Fatalf("size %d: sum=%d err=%v, want %d", big, sum, err, want.Checksum())
	}
	if n := len(s.idle); n != 0 {
		t.Fatalf("%d payloads idle after a %d-byte request, want 0", n, big)
	}
	if _, err := c.Encrypt(1 << 10); err != nil {
		t.Fatal(err)
	}
	if n := len(s.idle); n != 1 {
		t.Fatalf("%d payloads idle after a 1 KiB request, want 1", n)
	}
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	// Flushed after each reply, as a connection with no request buffered is.
	w := &replyWriter{bw: bufio.NewWriter(io.Discard)}
	serve := func(size int) {
		p := s.takePayload(size)
		p.compute()
		s.reply(w, p)
		_ = w.bw.Flush()
	}
	// AllocsPerRun's warm-up call grows the kept kernel to 256 KiB.
	if got := testing.AllocsPerRun(20, func() { serve(1 << 10); serve(256 << 10) }); got != 0 {
		t.Errorf("a request on a recycled payload: %v allocs/op, want 0", got)
	}
	// Two collections in a row, as TestWaiterFreeListSurvivesGC runs them: a
	// sync.Pool keeps what one collection took in its victim cache. In a
	// binary that links net a collection allocates on its own account (2
	// objects each here), so that much is the floor.
	collect := func() { runtime.GC(); runtime.GC() }
	gc := testing.AllocsPerRun(20, func() { collect(); collect() })
	if got := testing.AllocsPerRun(20, func() {
		serve(1 << 10)
		collect()
		serve(256 << 10)
		collect()
	}); got != gc {
		t.Errorf("requests across collections: %v allocs/op, want the collections' own %v", got, gc)
	}

	// One request first, so the new server's accept goroutine has started:
	// left to its first turn on the processor, it can fall inside the runs
	// below and count its own allocations.
	py, pc := startServer(t, Config{Mode: Pyjama, Workers: 1})
	if _, err := pc.Encrypt(1 << 10); err != nil {
		t.Fatal(err)
	}
	want = kernels.NewCrypt(1 << 10)
	want.RunSeq()
	got := testing.AllocsPerRun(50, func() {
		p := py.takePayload(1 << 10)
		comp, err := py.rt.Invoke("worker", core.Wait, p.block)
		if err != nil || comp.Err() != nil || p.sum != want.Checksum() {
			t.Fatalf("Invoke: err=%v, block err=%v, sum=%d, want %d", err, comp.Err(), p.sum, want.Checksum())
		}
		py.reply(w, p)
		_ = w.bw.Flush()
	})
	if got != 0 {
		t.Errorf("a Pyjama request on a recycled payload: %v allocs/op, want 0", got)
	}
}

// TestClientDoParsesReplies: Client.Do is how evaluation.DriveHTTP tells a
// served request from a shed, an error and a malformed reply, and it drains
// every reply, so a client's requests share one keep-alive connection.
func TestClientDoParsesReplies(t *testing.T) {
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch q := r.URL.Query().Get("size"); q {
		case "1":
			w.Write([]byte("abc"))
		case "2":
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
		case "4":
			w.Write([]byte("-9223372036854775808\n")) // the longest reply, 21 bytes
		default:
			w.Write([]byte(q + "\n"))
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c := NewClient(srv.URL)

	if _, status, err := c.Do(1); err == nil || status != http.StatusOK || err.Error() != `httpserver: bad response "abc"` {
		t.Fatalf(`200 "abc": status=%d err=%v, want 200 and a bad response`, status, err)
	}
	if _, status, err := c.Do(2); err == nil || status != http.StatusServiceUnavailable || err.Error() != "httpserver: status 503: overloaded\n" {
		t.Fatalf("503: status=%d err=%q, want 503 and the body", status, err)
	}
	for size, want := range map[int]int64{3: 3, 4: math.MinInt64, math.MaxInt64: math.MaxInt64} {
		if sum, status, err := c.Do(size); err != nil || status != http.StatusOK || sum != want {
			t.Fatalf("reply %d: sum=%d status=%d err=%v", want, sum, status, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections for 5 requests, want 1 kept alive", n)
	}
}

func TestClientBadBase(t *testing.T) {
	c := NewClient("http://127.0.0.1:1")
	if _, err := c.Encrypt(0); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestStopIdempotentAndBeforeStart(t *testing.T) {
	s := New(Config{Mode: Jetty, Workers: 1})
	s.Stop() // never started: must not hang or panic
	s2, c := startServer(t, Config{Mode: Pyjama, Workers: 1, KernelBytes: 1024})
	if _, err := c.Encrypt(0); err != nil {
		t.Fatal(err)
	}
	s2.Stop()
	s2.Stop() // double stop
	if _, err := c.Encrypt(0); err == nil {
		t.Fatal("request to stopped server succeeded")
	}
}

// TestStopWithRequestInFlight: Stop with a request parked inside its handler
// (Pyjama's queued behind the one worker, held; Jetty's waiting for the one
// slot, held) closes the connection, so the client gets an error rather than
// a hang, and returns once the held worker lets the pool shut down, leaving
// no connection or accept goroutine behind.
func TestStopWithRequestInFlight(t *testing.T) {
	for _, mode := range []Mode{Pyjama, Jetty} {
		t.Run(mode.String(), func(t *testing.T) {
			defer leakcheck.Check(t)()
			s := New(Config{Mode: mode, Workers: 1, KernelBytes: 1024})
			base, err := s.Start()
			if err != nil {
				t.Fatal(err)
			}
			release := make(chan struct{})
			if mode == Pyjama {
				if _, err := s.rt.Invoke("worker", core.Nowait, func() { <-release }); err != nil {
					t.Fatal(err)
				}
			} else {
				s.sem <- struct{}{}
			}
			errc := make(chan error, 1)
			go func() {
				_, err := NewClient(base).Encrypt(0)
				errc <- err
			}()
			poll.UntilBlockedIn(t, "httpserver.(*Server).handleEncrypt")

			stopped := make(chan struct{})
			go func() { s.Stop(); close(stopped) }()
			select {
			case err := <-errc:
				if err == nil {
					t.Fatal("the request in flight succeeded across Stop")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the client hung across Stop")
			}
			close(release)
			select {
			case <-stopped:
			case <-time.After(5 * time.Second):
				t.Fatal("Stop hung with a request in flight")
			}
		})
	}
}

func TestPyjamaStartFailsOnSecondWorkerRegistration(t *testing.T) {
	s := New(Config{Mode: Pyjama, Workers: 1})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	// Reusing the same server's Start would re-register "worker".
	if _, err := s.Start(); err == nil {
		t.Fatal("second Start on pyjama server succeeded")
	}
}
