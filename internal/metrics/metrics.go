// Package metrics provides the measurement machinery used by the evaluation
// harness: latency histograms with percentile summaries, throughput meters,
// and time-series recorders for event response times.
//
// The paper's Evaluation section reports two quantities: the average response
// time of GUI events (time from event firing to the completion of its
// handling, Figures 7–8) and server throughput in responses per second
// (Figure 9). Everything in this package is safe for concurrent use unless
// stated otherwise.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a concurrency-safe monotonic event counter (SpanSink's
// per-target incident counts).
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// defaultReservoirCap bounds how many raw samples a Histogram retains by
// default. Evaluation runs record at most a few hundred thousand events, so
// the default keeps them exact; anything longer-lived degrades to reservoir
// sampling instead of growing without bound.
const defaultReservoirCap = 1 << 18

// Histogram is a concurrency-safe latency histogram. Up to its reservoir
// capacity it retains every sample, so quantiles are exact — avoiding
// bucket-resolution arguments when comparing approaches. Past the capacity
// it switches to reservoir sampling (Vitter's Algorithm R): each new sample
// replaces a uniformly random retained one with probability cap/seen, so
// the reservoir stays a uniform sample of the whole stream and memory stays
// bounded. Count, Mean, Stddev, Min and Max are maintained as running
// aggregates and remain exact regardless of how many samples were observed.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
	cap     int
	seen    int64   // total observations, including ones not retained
	sum     float64 // running sum of all observations
	sumsq   float64 // running sum of squares of all observations
	min     time.Duration
	max     time.Duration
	rng     uint64 // splitmix64 state for reservoir replacement
}

// NewHistogram returns an empty histogram with the default reservoir
// capacity.
func NewHistogram() *Histogram { return NewHistogramCap(defaultReservoirCap) }

// NewHistogramCap returns an empty histogram retaining at most capacity raw
// samples (capacity < 16 is clamped to 16). Quantiles are exact until the
// stream outgrows the reservoir, then approximate; the running aggregates
// stay exact either way.
func NewHistogramCap(capacity int) *Histogram {
	if capacity < 16 {
		capacity = 16
	}
	// Deterministic seed: evaluation runs must be reproducible, and the
	// reservoir only needs uniformity, not unpredictability.
	return &Histogram{cap: capacity, rng: 0x9E3779B97F4A7C15}
}

// nextRand is splitmix64 — one add, three xor-shift-multiplies; called under mu.
func (h *Histogram) nextRand() uint64 {
	h.rng += 0x9E3779B97F4A7C15
	z := h.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	if h.cap == 0 {
		h.cap = defaultReservoirCap // zero-value Histogram
	}
	if h.seen == 0 || d < h.min {
		h.min = d
	}
	if h.seen == 0 || d > h.max {
		h.max = d
	}
	h.seen++
	h.sum += float64(d)
	h.sumsq += float64(d) * float64(d)
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, d)
		h.sorted = false
	} else if j := int64(h.nextRand() % uint64(h.seen)); j < int64(h.cap) {
		h.samples[j] = d
		h.sorted = false
	}
	h.mu.Unlock()
}

// Count returns the number of observed samples (including any no longer
// retained by the reservoir).
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.seen)
}

// Retained returns how many raw samples the reservoir currently holds (for
// tests and memory accounting).
func (h *Histogram) Retained() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean returns the arithmetic mean of all observed samples (0 if empty).
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seen == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.seen))
}

// Min returns the smallest observed sample (0 if empty). Exact: tracked as
// a running aggregate, not read from the reservoir.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observed sample (0 if empty). Exact, like Min.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank on the
// sorted retained samples — exact while the stream fits the reservoir, a
// uniform-sample estimate beyond it. The extremes are always exact: q<=0
// and q>=1 return the running Min and Max. Returns 0 if the histogram is
// empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	h.sortLocked()
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return h.samples[idx]
}

// Stddev returns the population standard deviation of all observed samples.
// Exact: computed from running aggregates.
func (h *Histogram) Stddev() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seen == 0 {
		return 0
	}
	n := float64(h.seen)
	mean := h.sum / n
	variance := h.sumsq/n - mean*mean
	if variance < 0 {
		variance = 0 // float rounding on near-constant streams
	}
	return time.Duration(math.Sqrt(variance))
}

// Reset discards all samples and running aggregates.
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.samples = h.samples[:0]
	h.sorted = false
	h.seen = 0
	h.sum, h.sumsq = 0, 0
	h.min, h.max = 0, 0
	h.mu.Unlock()
}

func (h *Histogram) sortLocked() {
	if h.sorted {
		return
	}
	sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
	h.sorted = true
}

// Summary is a fixed snapshot of a histogram's headline statistics.
type Summary struct {
	Count  int
	Mean   time.Duration
	Min    time.Duration
	P50    time.Duration
	P90    time.Duration
	P99    time.Duration
	Max    time.Duration
	Stddev time.Duration
}

// Summarize computes a Summary from the histogram's current contents.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:  h.Count(),
		Mean:   h.Mean(),
		Min:    h.Min(),
		P50:    h.Quantile(0.50),
		P90:    h.Quantile(0.90),
		P99:    h.Quantile(0.99),
		Max:    h.Max(),
		Stddev: h.Stddev(),
	}
}

// String formats the summary as a single bench-style row.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		s.Count, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P90.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.Max.Round(time.Microsecond))
}

// ResponseRecord is one event's measured lifecycle, mirroring the paper's
// definition: "the time flow from the event firing to the finish of its
// event handling".
type ResponseRecord struct {
	// Seq is the event's sequence number within its run.
	Seq int
	// Fired is when the event was generated (entered the queue).
	Fired time.Time
	// DispatchStart is when the EDT began executing the handler.
	DispatchStart time.Time
	// HandlerDone is when the EDT returned from the handler body (the EDT
	// became free again).
	HandlerDone time.Time
	// Completed is when all work triggered by the event (including offloaded
	// continuations) finished. Response time = Completed - Fired.
	Completed time.Time
}

// ResponseTime returns Completed-Fired.
func (r ResponseRecord) ResponseTime() time.Duration { return r.Completed.Sub(r.Fired) }

// QueueDelay returns DispatchStart-Fired: how long the event waited behind
// earlier events (the unresponsiveness the paper's Figure 1(i) illustrates).
func (r ResponseRecord) QueueDelay() time.Duration { return r.DispatchStart.Sub(r.Fired) }

// EDTOccupancy returns HandlerDone-DispatchStart: how long the EDT itself was
// tied up by this event (small for asynchronous approaches).
func (r ResponseRecord) EDTOccupancy() time.Duration { return r.HandlerDone.Sub(r.DispatchStart) }

// Collector accumulates ResponseRecords for one benchmark run.
type Collector struct {
	mu      sync.Mutex
	records []ResponseRecord
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Record appends one completed event record.
func (c *Collector) Record(r ResponseRecord) {
	c.mu.Lock()
	c.records = append(c.records, r)
	c.mu.Unlock()
}

// Len returns the number of recorded events.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.records)
}

// Records returns a copy of the accumulated records ordered by Seq.
func (c *Collector) Records() []ResponseRecord {
	c.mu.Lock()
	out := make([]ResponseRecord, len(c.records))
	copy(out, c.records)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// ResponseHistogram builds a histogram of response times.
func (c *Collector) ResponseHistogram() *Histogram {
	h := NewHistogram()
	for _, r := range c.Records() {
		h.Observe(r.ResponseTime())
	}
	return h
}

// OccupancyHistogram builds a histogram of EDT occupancy times.
func (c *Collector) OccupancyHistogram() *Histogram {
	h := NewHistogram()
	for _, r := range c.Records() {
		h.Observe(r.EDTOccupancy())
	}
	return h
}

// BarChart renders labeled values as a horizontal ASCII bar chart scaled to
// width columns — the text-mode "figure" the report command prints next to
// its tables.
func BarChart(labels []string, values []float64, unit string, width int) string {
	if len(labels) != len(values) || len(labels) == 0 {
		return ""
	}
	if width <= 0 {
		width = 40
	}
	maxVal := values[0]
	maxLabel := 0
	for i, v := range values {
		if v > maxVal {
			maxVal = v
		}
		if len(labels[i]) > maxLabel {
			maxLabel = len(labels[i])
		}
	}
	if maxVal <= 0 {
		maxVal = 1
	}
	var b strings.Builder
	for i, v := range values {
		n := int(v / maxVal * float64(width))
		if n < 0 {
			n = 0
		}
		if v > 0 && n == 0 {
			n = 1
		}
		fmt.Fprintf(&b, "%-*s |%s%s %.1f%s\n",
			maxLabel, labels[i], strings.Repeat("#", n), strings.Repeat(" ", width-n), v, unit)
	}
	return b.String()
}
