package workload

import (
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestConstantSchedule(t *testing.T) {
	s := &Source{Rate: 100, Events: 5}
	sched := s.Schedule()
	if len(sched) != 5 {
		t.Fatalf("len = %d", len(sched))
	}
	gap := 10 * time.Millisecond
	for i, off := range sched {
		if off != gap*time.Duration(i) {
			t.Fatalf("offset[%d] = %v, want %v", i, off, gap*time.Duration(i))
		}
	}
	if s.Duration() != 4*gap {
		t.Fatalf("Duration = %v", s.Duration())
	}
}

func TestPoissonScheduleReproducibleAndMonotonic(t *testing.T) {
	a := &Source{Rate: 50, Events: 100, Pattern: Poisson, Seed: 7}
	b := &Source{Rate: 50, Events: 100, Pattern: Poisson, Seed: 7}
	sa, sb := a.Schedule(), b.Schedule()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("same seed produced different schedules")
		}
		if i > 0 && sa[i] < sa[i-1] {
			t.Fatal("schedule not monotonic")
		}
	}
	c := &Source{Rate: 50, Events: 100, Pattern: Poisson, Seed: 8}
	diff := false
	for i, v := range c.Schedule() {
		if v != sa[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPoissonMeanRateProperty(t *testing.T) {
	// Property: the mean inter-arrival time approaches 1/rate.
	f := func(seed int64) bool {
		s := &Source{Rate: 200, Events: 2000, Pattern: Poisson, Seed: seed}
		sched := s.Schedule()
		mean := sched[len(sched)-1] / time.Duration(len(sched)-1)
		want := 5 * time.Millisecond
		return mean > want/2 && mean < want*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBurstSchedule(t *testing.T) {
	s := &Source{Rate: 100, Events: 10, Pattern: Burst, BurstSize: 5}
	sched := s.Schedule()
	// First five at 0, next five at 50ms.
	for i := 0; i < 5; i++ {
		if sched[i] != 0 {
			t.Fatalf("burst 1 offset[%d] = %v", i, sched[i])
		}
	}
	for i := 5; i < 10; i++ {
		if sched[i] != 50*time.Millisecond {
			t.Fatalf("burst 2 offset[%d] = %v", i, sched[i])
		}
	}
}

func TestScheduleDegenerate(t *testing.T) {
	if (&Source{Rate: 0, Events: 5}).Schedule() != nil {
		t.Fatal("zero rate should produce nil schedule")
	}
	if (&Source{Rate: 10, Events: 0}).Schedule() != nil {
		t.Fatal("zero events should produce nil schedule")
	}
	if (&Source{}).Duration() != 0 {
		t.Fatal("empty duration")
	}
}

func TestRunFiresAllEventsInOrder(t *testing.T) {
	s := &Source{Rate: 2000, Events: 20}
	var got []int
	s.Run(func(i int) { got = append(got, i) })
	if len(got) != 20 {
		t.Fatalf("fired %d events", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatal("events out of order")
		}
	}
}

func TestRunRespectsRate(t *testing.T) {
	s := &Source{Rate: 1000, Events: 50}
	start := time.Now()
	s.Run(func(int) {})
	elapsed := time.Since(start)
	if elapsed < 49*time.Millisecond {
		t.Fatalf("run completed in %v, faster than the offered load allows", elapsed)
	}
}

func TestVirtualUsers(t *testing.T) {
	v := &VirtualUsers{Users: 8, RequestsPerUser: 25}
	var n atomic.Int64
	seen := make([]atomic.Int64, 8)
	d := v.Run(func(u, r int) {
		n.Add(1)
		seen[u].Add(1)
	})
	if n.Load() != int64(v.Total()) {
		t.Fatalf("ran %d requests, want %d", n.Load(), v.Total())
	}
	for u := range seen {
		if seen[u].Load() != 25 {
			t.Fatalf("user %d ran %d requests", u, seen[u].Load())
		}
	}
	if d <= 0 {
		t.Fatal("non-positive duration")
	}
}

func TestMeanRate(t *testing.T) {
	if r := MeanRate(100, time.Second); r != 100 {
		t.Fatalf("MeanRate = %v", r)
	}
	if r := MeanRate(100, 0); r != 0 {
		t.Fatalf("MeanRate(0 dur) = %v", r)
	}
}

func TestLoadsSweep(t *testing.T) {
	loads := Loads()
	if len(loads) != 10 || loads[0] != 10 || loads[9] != 100 {
		t.Fatalf("Loads = %v", loads)
	}
}

func TestPatternString(t *testing.T) {
	if Constant.String() != "constant" || Poisson.String() != "poisson" ||
		Burst.String() != "burst" || Pattern(9).String() != "unknown" {
		t.Fatal("pattern names")
	}
}
