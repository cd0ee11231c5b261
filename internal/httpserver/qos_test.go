package httpserver

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/testutil/poll"
	"repro/internal/trace"
)

// TestQoSHappyPathServes checks that a generously-provisioned qos server
// behaves like the seed: every request admitted, nothing shed.
func TestQoSHappyPathServes(t *testing.T) {
	s, c := startServer(t, Config{Mode: Pyjama, Workers: 4, KernelBytes: 4096,
		QoS: &QoSConfig{QueueLimit: -1, RequestTimeout: 30 * time.Second}})
	for i := 0; i < 8; i++ {
		if _, err := c.Encrypt(0); err != nil {
			t.Fatal(err)
		}
	}
	if s.Served() != 8 || s.Shed() != 0 {
		t.Fatalf("Served=%d Shed=%d, want 8/0", s.Served(), s.Shed())
	}
}

// TestQoSWaitQueueBoundAndDeadline checks admission at the server: with every
// slot taken, one request waits (QueueLimit 1), the next is shed at once, and
// the waiter is served when a slot frees; with an unbounded wait queue, a
// waiter is shed at its request deadline.
func TestQoSWaitQueueBoundAndDeadline(t *testing.T) {
	const patience = 10 * time.Second
	s, c := startServer(t, Config{Mode: Pyjama, Workers: 1, KernelBytes: 1024,
		QoS: &QoSConfig{QueueLimit: 1, RequestTimeout: patience}})
	s.sem <- struct{}{} // the one slot is taken
	waiter := make(chan int, 1)
	go func() {
		_, status, _ := c.Do(0)
		waiter <- status
	}()
	poll.Until(t, "a request to wait for a slot", func() bool { return s.waiting.Load() == 1 })
	start := time.Now()
	if _, status, _ := c.Do(0); status != http.StatusServiceUnavailable || time.Since(start) >= patience {
		t.Fatalf("request past QueueLimit: status %d after %v, want 503 at once", status, time.Since(start))
	}
	<-s.sem
	if status := <-waiter; status != http.StatusOK {
		t.Fatalf("waiter: status %d once a slot freed, want 200", status)
	}
	if s.Served() != 1 || s.Shed() != 1 {
		t.Fatalf("Served=%d Shed=%d, want 1/1", s.Served(), s.Shed())
	}

	const timeout = 20 * time.Millisecond
	s, c = startServer(t, Config{Mode: Pyjama, Workers: 1, KernelBytes: 1024,
		QoS: &QoSConfig{QueueLimit: -1, RequestTimeout: timeout}})
	s.sem <- struct{}{}
	start = time.Now()
	if _, status, _ := c.Do(0); status != http.StatusServiceUnavailable {
		t.Fatalf("waiter behind a held slot: status %d, want 503 at its deadline", status)
	}
	if waited := time.Since(start); waited < timeout {
		t.Fatalf("shed after %v, want at the %v deadline", waited, timeout)
	}
	if n := s.waiting.Load(); n != 0 {
		t.Fatalf("waiting = %d after the shed, want 0", n)
	}
}

// startQoSServer starts a Pyjama server with QoS whose trace events are also
// recorded in the returned buffer (chained behind the server's own sink).
func startQoSServer(t *testing.T, workers int, qos QoSConfig) (*Server, *Client, *trace.Buffer) {
	t.Helper()
	buf := trace.NewBuffer(4096)
	t.Cleanup(trace.Use(buf)) // runs after startServer's Stop
	s, c := startServer(t, Config{Mode: Pyjama, Workers: workers, KernelBytes: 1024, QoS: &qos})
	return s, c, buf
}

// TestQoSFastPathAdmission: free slots admit at once, without counting a
// waiter, and a released slot admits again.
func TestQoSFastPathAdmission(t *testing.T) {
	s, _, buf := startQoSServer(t, 2, QoSConfig{QueueLimit: 0})
	for i := 0; i < 2; i++ {
		if !s.admit(context.Background()) {
			t.Fatalf("admit %d refused with a free slot", i)
		}
	}
	if n, w := len(s.sem), s.waiting.Load(); n != 2 || w != 0 {
		t.Fatalf("slots held = %d, waiting = %d; want 2/0", n, w)
	}
	<-s.sem
	<-s.sem
	if !s.admit(context.Background()) {
		t.Fatal("admit after the slots were released refused")
	}
	<-s.sem
	if n := buf.CountOp(trace.OpShed); n != 0 {
		t.Fatalf("OpShed count = %d, want 0", n)
	}
}

// TestQoSQueueLimitZeroShedsAtOnce: with no wait queue, a request that finds
// every slot taken is a 503 at once, counted by Shed, by one OpShed event and
// by /metrics.
func TestQoSQueueLimitZeroShedsAtOnce(t *testing.T) {
	const patience = 10 * time.Second
	s, c, buf := startQoSServer(t, 1, QoSConfig{QueueLimit: 0, RequestTimeout: patience})
	s.sem <- struct{}{}
	start := time.Now()
	if _, status, _ := c.Do(0); status != http.StatusServiceUnavailable || time.Since(start) >= patience {
		t.Fatalf("saturated request: status %d after %v, want 503 at once", status, time.Since(start))
	}
	if s.Shed() != 1 || s.Served() != 0 {
		t.Fatalf("Shed=%d Served=%d, want 1/0", s.Shed(), s.Served())
	}
	if n := buf.CountOp(trace.OpShed); n != 1 {
		t.Fatalf("OpShed count = %d, want 1", n)
	}
	if got := scrapeMetrics(t, c.base)[`repro_shed_total{target="worker"}`]; got != 1 {
		t.Fatalf("/metrics repro_shed_total = %v, want 1", got)
	}
}

// TestQoSQueueDeadlineShedIsCounted: a request whose deadline passes while it
// waits for a slot is shed no earlier than that deadline, and the shed reaches
// /metrics like any other.
func TestQoSQueueDeadlineShedIsCounted(t *testing.T) {
	const timeout = 20 * time.Millisecond
	s, c, buf := startQoSServer(t, 1, QoSConfig{QueueLimit: -1, RequestTimeout: timeout})
	s.sem <- struct{}{}
	start := time.Now()
	if _, status, _ := c.Do(0); status != http.StatusServiceUnavailable {
		t.Fatalf("waiter behind a held slot: status %d, want 503", status)
	}
	if waited := time.Since(start); waited < timeout {
		t.Fatalf("shed after %v, want no earlier than the %v deadline", waited, timeout)
	}
	if s.Shed() != 1 || buf.CountOp(trace.OpShed) != 1 {
		t.Fatalf("Shed=%d OpShed=%d, want 1/1", s.Shed(), buf.CountOp(trace.OpShed))
	}
	if got := scrapeMetrics(t, c.base)[`repro_shed_total{target="worker"}`]; got != 1 {
		t.Fatalf("/metrics repro_shed_total = %v, want 1", got)
	}
}

// TestQoSAdmitHonorsCallerContext: a wait for a slot ends when the caller's
// context does. A context the caller ends is a shed; Stop ending the server's
// context is not.
func TestQoSAdmitHonorsCallerContext(t *testing.T) {
	s, _, buf := startQoSServer(t, 1, QoSConfig{QueueLimit: -1})
	s.sem <- struct{}{}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- s.admit(ctx) }()
	poll.Until(t, "admit to wait for a slot", func() bool { return s.waiting.Load() == 1 })
	cancel()
	if <-done {
		t.Fatal("admit succeeded after its context ended, with the slot still held")
	}
	if w, n := s.waiting.Load(), buf.CountOp(trace.OpShed); w != 0 || n != 1 {
		t.Fatalf("waiting = %d, OpShed = %d after a cancelled wait; want 0/1", w, n)
	}

	go func() { done <- s.admit(s.ctx) }()
	poll.Until(t, "admit to wait for a slot", func() bool { return s.waiting.Load() == 1 })
	s.Stop()
	if <-done {
		t.Fatal("admit succeeded after Stop, with the slot still held")
	}
	if w, n := s.waiting.Load(), buf.CountOp(trace.OpShed); w != 0 || n != 1 {
		t.Fatalf("waiting = %d, OpShed = %d after Stop; want 0 and no new shed", w, n)
	}
}

// TestQoSConcurrentAdmitStress runs admission and release under contention
// (meant for -race): every call is admitted or shed, each shed emits one
// OpShed, and no slot or waiter is left counted.
func TestQoSConcurrentAdmitStress(t *testing.T) {
	s, _, buf := startQoSServer(t, 4, QoSConfig{QueueLimit: 64})
	const goroutines, rounds = 32, 50
	var admitted, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				if s.admit(ctx) {
					admitted.Add(1)
					<-s.sem
				} else {
					shed.Add(1)
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	if a, sh := admitted.Load(), shed.Load(); a+sh != goroutines*rounds || a == 0 {
		t.Fatalf("admitted(%d)+shed(%d), want %d with some admitted", a, sh, goroutines*rounds)
	}
	if n := buf.CountOp(trace.OpShed); int64(n) != shed.Load() {
		t.Fatalf("OpShed count = %d, want one per shed (%d)", n, shed.Load())
	}
	if n, w := len(s.sem), s.waiting.Load(); n != 0 || w != 0 {
		t.Fatalf("slots held = %d, waiting = %d after every release; want 0/0", n, w)
	}
}

// TestPyjamaQoSShedsUnderOverload is the acceptance scenario: offered load
// far beyond worker capacity must produce 503s (bounded latency) instead
// of an unbounded queue, with the shed count visible in the new metrics
// and the p99 of successful requests bounded.
func TestPyjamaQoSShedsUnderOverload(t *testing.T) {
	// 1 worker at ~7ms/request vs 16 concurrent clients: offered load
	// is an order of magnitude over capacity, and with no wait queue
	// (QueueLimit 0) every request that cannot start immediately is shed.
	s, c := startServer(t, Config{Mode: Pyjama, Workers: 1, KernelBytes: 256 * 1024,
		QoS: &QoSConfig{QueueLimit: 0}})

	lat := metrics.NewHistogram()
	var mu sync.Mutex
	var ok503, okOther int
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				start := time.Now()
				_, status, err := c.Do(0)
				d := time.Since(start)
				mu.Lock()
				switch {
				case err == nil:
					lat.Observe(d)
				case status == http.StatusServiceUnavailable:
					ok503++
				default:
					okOther++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if okOther != 0 {
		t.Fatalf("%d requests failed with something other than 503", okOther)
	}
	if s.Served() < 1 {
		t.Fatal("server under overload must still serve admitted requests")
	}
	if ok503 == 0 || s.Shed() == 0 {
		t.Fatalf("client 503s=%d server Shed=%d, want overload sheds", ok503, s.Shed())
	}
	// The same sheds reach /metrics: admission emits OpShed to the active
	// sink, which is the one the scrape is fed from.
	if got := scrapeMetrics(t, c.base)[`repro_shed_total{target="worker"}`]; int64(got) != s.Shed() {
		t.Fatalf("/metrics repro_shed_total = %v, want Shed's %d", got, s.Shed())
	}
	// With immediate shedding, no successful request ever waits behind
	// more than the in-flight computation: p99 stays bounded by a few
	// service times (generous CI bound, versus unbounded queueing which
	// would scale with total offered load).
	if p99 := lat.Quantile(0.99); p99 > 2*time.Second {
		t.Fatalf("success p99 = %v, want bounded under overload", p99)
	}
}

// TestQoSDeadlineAndBreaker drives requests whose compute time exceeds the
// request deadline: each admitted request responds 503, is counted as a shed,
// and serves nothing.
func TestQoSDeadlineAndBreaker(t *testing.T) {
	// The deadline is a quarter of one 1 MiB kernel measured here, so every
	// request overruns it fourfold on any machine, a recycled payload too.
	const size = 1 << 20
	t0 := time.Now()
	kernels.NewCrypt(size).RunSeq()
	timeout := max(time.Since(t0)/4, time.Millisecond)
	s, c := startServer(t, Config{Mode: Pyjama, Workers: 1, KernelBytes: size,
		QoS: &QoSConfig{QueueLimit: 0, RequestTimeout: timeout}})

	for i := 0; i < 2; i++ {
		if _, status, err := c.Do(0); err == nil || status != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status=%d err=%v, want 503 deadline", i, status, err)
		}
	}
	if s.Shed() != 2 || s.Served() != 0 {
		t.Fatalf("Shed=%d Served=%d, want 2 deadlines and nothing served", s.Shed(), s.Served())
	}
}

// TestOverloadLeavesNoSpanOpen: an overload burst whose deadlines pass while
// the blocks are queued behind a busy worker — cancelled there, never run —
// leaves the span table /metrics is fed from empty once the queue has drained.
func TestOverloadLeavesNoSpanOpen(t *testing.T) {
	s, c := startServer(t, Config{Mode: Pyjama, Workers: 1, KernelBytes: 4096,
		QoS: &QoSConfig{QueueLimit: 4, RequestTimeout: 10 * time.Millisecond}})
	gate, busy := make(chan struct{}), make(chan struct{})
	if _, err := s.rt.Invoke("worker", core.Nowait, func() { close(busy); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-busy

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if _, status, err := c.Do(0); err == nil || status != http.StatusServiceUnavailable {
					t.Errorf("status=%d err=%v behind a held worker, want 503", status, err)
				}
			}
		}()
	}
	wg.Wait()
	close(gate)
	if _, err := c.Encrypt(0); err != nil {
		t.Fatal(err)
	}

	var got map[string]float64
	poll.Until(t, "repro_spans_open to read 0", func() bool {
		got = scrapeMetrics(t, c.base)
		return got["repro_spans_open"] == 0
	})
	if got[`repro_deadline_total{target="worker"}`] == 0 {
		t.Fatal("no block was cancelled while queued; the burst proved nothing")
	}
	if d := got["repro_spans_dropped_total"]; d != 0 {
		t.Fatalf("repro_spans_dropped_total = %v, want 0", d)
	}
}
