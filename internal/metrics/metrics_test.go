package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{10, 20, 30, 40, 50} {
		h.Observe(d * time.Millisecond)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Mean(); got != 30*time.Millisecond {
		t.Fatalf("Mean = %v, want 30ms", got)
	}
	if got := h.Min(); got != 10*time.Millisecond {
		t.Fatalf("Min = %v, want 10ms", got)
	}
	if got := h.Max(); got != 50*time.Millisecond {
		t.Fatalf("Max = %v, want 50ms", got)
	}
	if got := h.Quantile(0.5); got != 30*time.Millisecond {
		t.Fatalf("P50 = %v, want 30ms", got)
	}
	if got := h.Quantile(1.0); got != 50*time.Millisecond {
		t.Fatalf("P100 = %v, want 50ms", got)
	}
	if got := h.Quantile(0.0); got != 10*time.Millisecond {
		t.Fatalf("P0 = %v, want 10ms", got)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	// Property: for any sample set and quantiles q1 <= q2,
	// Quantile(q1) <= Quantile(q2), and both lie within [min, max].
	f := func(raw []uint32, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Observe(time.Duration(v))
		}
		q1, q2 := a-float64(int(a)), b-float64(int(b)) // fractional parts
		if q1 < 0 {
			q1 = -q1
		}
		if q2 < 0 {
			q2 = -q2
		}
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := h.Quantile(q1), h.Quantile(q2)
		return v1 <= v2 && v1 >= h.Min() && v2 <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMeanBounds(t *testing.T) {
	// Property: min <= mean <= max.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Observe(time.Duration(v))
		}
		m := h.Mean()
		return m >= h.Min() && m <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Second)
	h.Reset()
	if h.Count() != 0 {
		t.Fatal("Reset did not clear samples")
	}
}

func TestSummarize(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Summarize()
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.P50 != 50*time.Millisecond {
		t.Fatalf("P50 = %v, want 50ms", s.P50)
	}
	if s.P90 != 90*time.Millisecond {
		t.Fatalf("P90 = %v, want 90ms", s.P90)
	}
	if s.P99 != 99*time.Millisecond {
		t.Fatalf("P99 = %v, want 99ms", s.P99)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestResponseRecordDerived(t *testing.T) {
	base := time.Unix(0, 0)
	r := ResponseRecord{
		Fired:         base,
		DispatchStart: base.Add(5 * time.Millisecond),
		HandlerDone:   base.Add(7 * time.Millisecond),
		Completed:     base.Add(100 * time.Millisecond),
	}
	if got := r.ResponseTime(); got != 100*time.Millisecond {
		t.Fatalf("ResponseTime = %v", got)
	}
	if got := r.QueueDelay(); got != 5*time.Millisecond {
		t.Fatalf("QueueDelay = %v", got)
	}
	if got := r.EDTOccupancy(); got != 2*time.Millisecond {
		t.Fatalf("EDTOccupancy = %v", got)
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	base := time.Unix(0, 0)
	for i := 2; i >= 0; i-- { // insert out of order
		c.Record(ResponseRecord{
			Seq:           i,
			Fired:         base,
			DispatchStart: base,
			HandlerDone:   base.Add(time.Duration(i) * time.Millisecond),
			Completed:     base.Add(time.Duration(i+1) * time.Millisecond),
		})
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	recs := c.Records()
	for i, r := range recs {
		if r.Seq != i {
			t.Fatalf("Records not sorted by Seq: %v", recs)
		}
	}
	h := c.ResponseHistogram()
	if h.Count() != 3 || h.Mean() != 2*time.Millisecond {
		t.Fatalf("ResponseHistogram mean = %v", h.Mean())
	}
	oh := c.OccupancyHistogram()
	if oh.Count() != 3 || oh.Max() != 2*time.Millisecond {
		t.Fatalf("OccupancyHistogram max = %v", oh.Max())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < 10000; i++ {
		h.Observe(time.Duration(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart([]string{"jetty", "pyjama"}, []float64{50, 100}, " r/s", 20)
	if out == "" {
		t.Fatal("empty chart")
	}
	lines := splitLines(out)
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	// pyjama's bar must be roughly twice jetty's.
	j := countRunes(lines[0], '#')
	p := countRunes(lines[1], '#')
	if p != 20 || j < 8 || j > 12 {
		t.Fatalf("bars j=%d p=%d", j, p)
	}
	// Small positive values still get one tick.
	tiny := BarChart([]string{"a", "b"}, []float64{0.001, 100}, "", 20)
	if countRunes(splitLines(tiny)[0], '#') != 1 {
		t.Fatalf("tiny bar dropped:\n%s", tiny)
	}
	// Degenerate inputs.
	if BarChart(nil, nil, "", 10) != "" {
		t.Fatal("nil inputs")
	}
	if BarChart([]string{"x"}, []float64{1, 2}, "", 10) != "" {
		t.Fatal("mismatched lengths")
	}
	if BarChart([]string{"x"}, []float64{0}, "", 10) == "" {
		t.Fatal("all-zero should still render")
	}
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

func countRunes(s string, want rune) int {
	n := 0
	for _, r := range s {
		if r == want {
			n++
		}
	}
	return n
}

// TestHistogramMemoryBounded is the regression test for the unbounded
// sample-retention bug: a long-lived histogram (e.g. a server's sojourn
// histogram) used to keep every sample forever. With the reservoir it must
// retain at most its capacity while the exact running aggregates keep
// reporting on the whole stream.
func TestHistogramMemoryBounded(t *testing.T) {
	const capacity = 1024
	const n = 500_000
	h := NewHistogramCap(capacity)
	for i := 1; i <= n; i++ {
		h.Observe(time.Duration(i))
	}
	if got := h.Retained(); got > capacity {
		t.Fatalf("Retained() = %d, want <= %d (unbounded growth)", got, capacity)
	}
	if got := h.Count(); got != n {
		t.Fatalf("Count() = %d, want %d", got, n)
	}
	// Running aggregates are exact regardless of the reservoir.
	if got := h.Min(); got != 1 {
		t.Fatalf("Min() = %d, want 1", got)
	}
	if got := h.Max(); got != n {
		t.Fatalf("Max() = %d, want %d", got, n)
	}
	wantMean := time.Duration((n + 1) / 2)
	if got := h.Mean(); got < wantMean-1 || got > wantMean+1 {
		t.Fatalf("Mean() = %d, want ~%d", got, wantMean)
	}
	// Quantile extremes route to the exact running min/max.
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %d, want 1", got)
	}
	if got := h.Quantile(1); got != n {
		t.Fatalf("Quantile(1) = %d, want %d", got, n)
	}
	// Interior quantiles are estimates from a uniform reservoir: for the
	// ramp 1..n the p50 must land near n/2. A 1024-sample reservoir gives a
	// standard error around 1.6% of n; 10% tolerance is far outside noise.
	p50 := float64(h.Quantile(0.50))
	if p50 < 0.40*n || p50 > 0.60*n {
		t.Fatalf("Quantile(0.5) = %.0f, want within 10%% of %d", p50, n/2)
	}
}

// TestHistogramExactBelowCap verifies nothing changed for streams that fit
// the reservoir: quantiles stay exact nearest-rank answers.
func TestHistogramExactBelowCap(t *testing.T) {
	h := NewHistogramCap(1024)
	for i := 100; i >= 1; i-- { // reverse order: sorting must still happen
		h.Observe(time.Duration(i))
	}
	if got := h.Retained(); got != 100 {
		t.Fatalf("Retained() = %d, want 100", got)
	}
	if got := h.Quantile(0.50); got != 50 {
		t.Fatalf("Quantile(0.5) = %d, want 50", got)
	}
	if got := h.Quantile(0.99); got != 99 {
		t.Fatalf("Quantile(0.99) = %d, want 99", got)
	}
	if got := h.Stddev(); got < 28 || got > 30 { // exact: ~28.87 for 1..100
		t.Fatalf("Stddev() = %d, want ~28.87", got)
	}
}

// TestHistogramResetClearsAggregates verifies Reset also clears the running
// aggregates, not just the reservoir.
func TestHistogramResetClearsAggregates(t *testing.T) {
	h := NewHistogramCap(16)
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i + 1))
	}
	h.Reset()
	if h.Count() != 0 || h.Retained() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("Reset left state: count=%d retained=%d min=%v max=%v mean=%v",
			h.Count(), h.Retained(), h.Min(), h.Max(), h.Mean())
	}
	h.Observe(7)
	if h.Min() != 7 || h.Max() != 7 || h.Count() != 1 {
		t.Fatalf("post-Reset observe wrong: min=%v max=%v count=%d", h.Min(), h.Max(), h.Count())
	}
}
