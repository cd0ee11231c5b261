package httpserver

import (
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/testutil/poll"
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
	if st := s.limiter.Stats(); st.Admitted != 8 || st.Shed != 0 {
		t.Fatalf("limiter stats = %+v, want 8 admissions and no shed", st)
	}
}

// TestPyjamaQoSShedsUnderOverload is the acceptance scenario: offered load
// far beyond worker capacity must produce 503s (bounded latency) instead
// of an unbounded queue, with the shed count visible in the new metrics
// and the p99 of successful requests bounded.
func TestPyjamaQoSShedsUnderOverload(t *testing.T) {
	// 1 worker at ~7ms/request vs 16 concurrent clients: offered load
	// is an order of magnitude over capacity, and with a Reject policy
	// (QueueLimit 0, no timeout) every request that cannot start
	// immediately is shed.
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
	shed := s.limiter.Stats().Shed
	if shed == 0 {
		t.Fatal("the limiter counted no shed")
	}
	// The same sheds reach /metrics: the limiter emits OpShed to the active
	// sink, which is the one the scrape is fed from.
	if got := scrapeMetrics(t, c.base)[`repro_shed_total{target="worker"}`]; int64(got) != shed {
		t.Fatalf("/metrics repro_shed_total = %v, want the limiter's %d", got, shed)
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
