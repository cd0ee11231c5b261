package httpserver

import (
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/executor"
	"repro/internal/supervise"
)

func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", msg)
}

// TestSupervisedServerSurvivesKillStorm is the end-to-end acceptance drill:
// worker goroutines are killed at a 10% rate under live HTTP load. With
// supervision the target respawns workers within its budget, /healthz reports
// degraded and then recovers, and no request hangs — every one gets a
// definite response (200, or a typed 5xx) well inside the client timeout.
func TestSupervisedServerSurvivesKillStorm(t *testing.T) {
	inj := chaos.New(chaos.SeedFromEnv(1337),
		chaos.Rule{Action: chaos.Kill, Rate: 0.10, Count: 6})
	s := New(Config{
		Mode:        Pyjama,
		Workers:     3,
		KernelBytes: 1024,
		Chaos:       inj,
		Supervise: &SuperviseConfig{
			Restart: &executor.RestartConfig{
				MaxRestarts:    30,
				Window:         400 * time.Millisecond,
				BackoffInitial: time.Millisecond,
				BackoffMax:     5 * time.Millisecond,
			},
			WatchdogInterval: 10 * time.Millisecond,
			StallAfter:       250 * time.Millisecond,
		},
	})
	base, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	client := NewClientTimeout(base, 5*time.Second)

	var ok, shed, failed int
	sawDegraded := false
	for i := 0; i < 150; i++ {
		_, status, err := client.Do(512)
		switch {
		case err == nil && status == 200:
			ok++
		case status == 503:
			shed++ // typed: target down
		case status == 500:
			failed++ // typed: the killed worker's request
		default:
			t.Fatalf("request %d hung or failed untyped: status=%d err=%v", i, status, err)
		}
		if !sawDegraded && supervise.Grade("worker", s.Restarts()).StatusValue() == supervise.Degraded {
			// The pool is mid-recovery: /healthz must say so.
			if hs, code, err := client.Healthz(); err != nil || code != 200 || hs != "degraded" {
				t.Fatalf("healthz during storm = %q/%d (%v)", hs, code, err)
			}
			sawDegraded = true
		}
	}
	if kills := inj.Injected(chaos.Kill); kills == 0 {
		t.Fatal("storm injected no kills; drill proved nothing")
	}
	if ok == 0 {
		t.Fatal("no request succeeded during the storm")
	}
	if !sawDegraded {
		t.Fatalf("supervision never reported degraded (ok=%d shed=%d failed=%d)", ok, shed, failed)
	}
	if s.Restarts().Total == 0 {
		t.Fatal("no worker was respawned")
	}
	// ... and /metrics counted it: the pool emits OpRestart to the active
	// sink, which is the one the scrape is fed from.
	if got := scrapeMetrics(t, base)[`repro_restarts_total{target="worker"}`]; got < 1 {
		t.Fatalf("/metrics repro_restarts_total = %v after a supervised restart, want >= 1", got)
	}

	// The storm is bounded: once the window slides past the last restart,
	// /healthz reads ok again and requests flow cleanly.
	waitUntil(t, 5*time.Second, func() bool {
		hs, code, err := client.Healthz()
		return err == nil && code == 200 && hs == "ok"
	}, "healthz recovery")
	if _, status, err := client.Do(512); err != nil || status != 200 {
		t.Fatalf("post-storm request: status=%d err=%v", status, err)
	}
	t.Logf("storm: %d ok, %d shed, %d failed, %d kills, %d respawns",
		ok, shed, failed, inj.Injected(chaos.Kill), s.Restarts().Total)
}

// TestUnsupervisedServerWedgesAndWatchdogFlagsIt is the control drill: the
// same worker kills against an unsupervised server leave the pool empty,
// requests wedge until the client gives up, and the only component that
// notices is the stall watchdog — /healthz degrades on its report.
func TestUnsupervisedServerWedgesAndWatchdogFlagsIt(t *testing.T) {
	inj := chaos.New(chaos.SeedFromEnv(1337),
		chaos.Rule{Action: chaos.Kill, Nth: 1, Count: 2}) // first two tasks kill both workers
	s := New(Config{
		Mode:        Pyjama,
		Workers:     2,
		KernelBytes: 1024,
		Chaos:       inj,
		Supervise: &SuperviseConfig{
			// No Restart: watch only, nothing repairs the pool.
			WatchdogInterval: 10 * time.Millisecond,
			StallAfter:       80 * time.Millisecond,
		},
	})
	base, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	// Short-timeout client: a wedged request must surface as a client
	// timeout, not block the drill.
	client := NewClientTimeout(base, 400*time.Millisecond)
	var wg sync.WaitGroup
	var mu sync.Mutex
	timeouts := 0
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, status, err := client.Do(512)
			if err != nil && status == 0 {
				// Transport-level failure: the request never got a
				// response before the client timeout — the wedge.
				mu.Lock()
				timeouts++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Nobody restarts anything: the watchdog's heartbeat probe queues
	// behind the wedge and crosses the stall threshold.
	waitUntil(t, 5*time.Second, func() bool { return s.Watchdog().Stalls() > 0 }, "watchdog stall")
	waitUntil(t, 5*time.Second, func() bool {
		hs, code, err := client.Healthz()
		return err == nil && code == 200 && hs == "degraded"
	}, "healthz degraded on stall")
	if rep := s.Watchdog().Health()["worker"]; rep.LivenessValue() != supervise.LiveStalled {
		t.Fatalf("watchdog report = %+v", rep)
	}
	if got := scrapeMetrics(t, base)[`repro_stalls_total{target="worker"}`]; got < 1 {
		t.Fatalf("/metrics repro_stalls_total = %v after a watchdog stall, want >= 1", got)
	}
	if timeouts == 0 {
		t.Log("note: all requests failed fast (kills raced ahead of the queue)")
	}
	if kills := inj.Injected(chaos.Kill); kills != 2 {
		t.Fatalf("kills = %d, want 2", kills)
	}
	// Stop must still complete: the shutdown backstop fails the wedged
	// queue instead of waiting on dead workers.
	done := make(chan struct{})
	go func() { s.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung on the wedged pool")
	}
}

// TestSupervisedServerOutOfBudgetGoesDown: a supervised server whose
// restart budget runs out goes down loudly. After a budget of 1 and two
// worker kills, /healthz answers 503 "down" — the pool's restart record says
// so, and so does the watchdog, whose probes now fail with ErrTargetDown — and /encrypt
// answers 503 at once, counted as a shed: not a 500, not a hang.
func TestSupervisedServerOutOfBudgetGoesDown(t *testing.T) {
	inj := chaos.New(chaos.SeedFromEnv(1337),
		chaos.Rule{Action: chaos.Kill, Nth: 1, Count: 2}) // the first two tasks each kill their worker
	s := New(Config{
		Mode:        Pyjama,
		Workers:     1,
		KernelBytes: 1024,
		Chaos:       inj,
		Supervise: &SuperviseConfig{
			Restart: &executor.RestartConfig{
				MaxRestarts:    1,
				Window:         time.Minute, // the respawn never ages out
				BackoffInitial: time.Millisecond,
			},
			WatchdogInterval: 10 * time.Millisecond,
			StallAfter:       time.Second,
		},
	})
	base, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	client := NewClientTimeout(base, 5*time.Second)

	// Requests and watchdog probes share the kill schedule; whichever takes
	// the kills, every request gets a definite answer.
	waitUntil(t, 10*time.Second, func() bool {
		if _, status, err := client.Do(512); status != 200 && status != 500 && status != 503 {
			t.Fatalf("request during the kills: status=%d err=%v", status, err)
		}
		return supervise.Grade("worker", s.Restarts()).StatusValue() == supervise.Down
	}, "the pool to go down")
	if kills := inj.Injected(chaos.Kill); kills != 2 {
		t.Fatalf("kills = %d, want 2", kills)
	}
	waitUntil(t, 5*time.Second, func() bool {
		return s.Watchdog().Health()["worker"].LivenessValue() == supervise.LiveDown
	}, "the watchdog to see the target down")
	if hs, code, err := client.Healthz(); err != nil || code != 503 || hs != "down" {
		t.Fatalf("healthz after the give-up = %q/%d (%v), want down/503", hs, code, err)
	}

	shed := s.Shed()
	start := time.Now()
	if _, status, err := client.Do(512); status != 503 {
		t.Fatalf("request to a down target: status=%d err=%v, want 503", status, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("request to a down target took %v, want a fail-fast answer", d)
	}
	if got := s.Shed(); got != shed+1 {
		t.Fatalf("Shed = %d after a 503 from a down target, want %d", got, shed+1)
	}
}
