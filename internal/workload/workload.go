// Package workload provides the load generators of the evaluation:
// open-loop event sources that fire GUI events at a configured request rate
// (Evaluation A sweeps 10 to 100 requests/sec) and closed-loop virtual user
// pools (Evaluation B drives the HTTP service with 100 virtual users, each
// sending a constant number of requests).
package workload

import (
	"math/rand"
	"sync"
	"time"
)

// Pattern selects the inter-arrival distribution of an open-loop source.
type Pattern int

const (
	// Constant fires at fixed intervals of 1/rate seconds.
	Constant Pattern = iota
	// Poisson fires with exponentially distributed inter-arrival times of
	// mean 1/rate (a memoryless event stream, the usual model for user
	// input and network requests).
	Poisson
	// Burst fires events in back-to-back groups of BurstSize, groups
	// arriving at rate/BurstSize per second (camera frames arriving in
	// clumps, the paper's augmented-reality motivation).
	Burst
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Constant:
		return "constant"
	case Poisson:
		return "poisson"
	case Burst:
		return "burst"
	default:
		return "unknown"
	}
}

// Source is an open-loop event generator: it fires exactly Events events at
// Rate events/second regardless of how fast they are handled (that is the
// point — response time under a fixed offered load).
type Source struct {
	// Rate is the offered load in events per second. Must be > 0.
	Rate float64
	// Events is the total number of events to fire.
	Events int
	// Pattern selects the inter-arrival distribution (default Constant).
	Pattern Pattern
	// BurstSize groups events for the Burst pattern (default 5).
	BurstSize int
	// Seed makes Poisson/Burst schedules reproducible (default 1).
	Seed int64
}

// Schedule returns the event fire offsets from the start of the run.
// Deterministic for a given Source configuration.
func (s *Source) Schedule() []time.Duration {
	if s.Rate <= 0 || s.Events <= 0 {
		return nil
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	gap := time.Duration(float64(time.Second) / s.Rate)
	out := make([]time.Duration, s.Events)
	switch s.Pattern {
	case Poisson:
		t := time.Duration(0)
		for i := range out {
			// Exponential inter-arrival with mean gap.
			t += time.Duration(float64(gap) * rng.ExpFloat64())
			out[i] = t
		}
	case Burst:
		bs := s.BurstSize
		if bs <= 0 {
			bs = 5
		}
		groupGap := time.Duration(float64(gap) * float64(bs))
		for i := range out {
			out[i] = groupGap * time.Duration(i/bs)
		}
	default: // Constant
		for i := range out {
			out[i] = gap * time.Duration(i)
		}
	}
	return out
}

// Run fires the schedule against fire(i), sleeping between events. fire is
// called from the generator goroutine and must not block for long (post the
// event and return); blocking in fire would close the loop and distort the
// offered load. Run returns when the last event has been fired.
func (s *Source) Run(fire func(i int)) {
	sched := s.Schedule()
	start := time.Now()
	for i, off := range sched {
		if d := time.Until(start.Add(off)); d > 0 {
			time.Sleep(d)
		}
		fire(i)
	}
}

// Duration returns the nominal length of the run (last event offset).
func (s *Source) Duration() time.Duration {
	sched := s.Schedule()
	if len(sched) == 0 {
		return 0
	}
	return sched[len(sched)-1]
}

// VirtualUsers is a closed-loop load generator: Users concurrent clients
// each performing RequestsPerUser operations back to back, as in the
// paper's "load benchmark ... set up with 100 virtual users, with each user
// sending a constant number of requests".
type VirtualUsers struct {
	Users           int
	RequestsPerUser int
}

// Run executes do(user, request) from Users goroutines and blocks until all
// requests completed. It returns the wall-clock duration of the run.
func (v *VirtualUsers) Run(do func(user, req int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for u := 0; u < v.Users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for r := 0; r < v.RequestsPerUser; r++ {
				do(u, r)
			}
		}(u)
	}
	wg.Wait()
	return time.Since(start)
}

// Total returns the total number of requests the pool will issue.
func (v *VirtualUsers) Total() int { return v.Users * v.RequestsPerUser }

// MeanRate computes the achieved throughput for n operations over d.
func MeanRate(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// Loads returns the request-rate sweep of Evaluation A: 10 rounds from
// 10 to 100 requests/sec.
func Loads() []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = 10 * float64(i+1)
	}
	return out
}
