// Prometheus text-format (version 0.0.4) encoding for the measurement
// primitives in this package. No client library: the exposition format is a
// dozen lines of text framing, and the container must not grow dependencies.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Labels is one series' label set. Encoded sorted by key for deterministic
// output.
type Labels map[string]string

// promBuckets are the latency bucket upper bounds of every BucketHistogram:
// exponential decades with a 1-2.5-5 ladder from 10µs to 10s — wide enough
// for inline dispatch (~µs) and stalled-target timeouts (~s) on one axis.
var promBuckets = [...]time.Duration{
	10 * time.Microsecond, 25 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// BucketHistogram is a latency histogram on the fixed promBuckets ladder: one
// counter per bucket, one past the last bound, and the sum. Every field is
// atomic, so Observe takes no lock and never allocates, and the counts stay
// exact however long the stream runs. The zero value is ready to use. Its
// resolution is the ladder's; Histogram keeps raw samples where a run needs
// exact quantiles.
type BucketHistogram struct {
	counts [len(promBuckets) + 1]atomic.Int64 // counts[i]: observations in (promBuckets[i-1], promBuckets[i]]
	sum    atomic.Int64                       // nanoseconds
}

// Observe records one sample.
func (h *BucketHistogram) Observe(d time.Duration) {
	i := 0
	for i < len(promBuckets) && d > promBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// PromEncoder streams metric families in the Prometheus text exposition
// format. Emit every series of one family (same metric name) consecutively —
// the format requires it; the encoder writes the # HELP / # TYPE header the
// first time it sees each name, so interleaving families would produce an
// exposition parsers reject.
type PromEncoder struct {
	w    io.Writer
	err  error
	seen map[string]bool
	line []byte   // the series line being built, reused
	keys []string // its sorted label keys, reused
}

// NewPromEncoder returns an encoder writing to w. Errors are sticky; check
// Err once at the end.
func NewPromEncoder(w io.Writer) *PromEncoder {
	return &PromEncoder{w: w, seen: make(map[string]bool), line: make([]byte, 0, 256)}
}

// Err returns the first write error, if any.
func (e *PromEncoder) Err() error { return e.err }

func (e *PromEncoder) header(name, help, typ string) {
	if e.seen[name] || e.err != nil {
		return
	}
	e.seen[name] = true
	_, e.err = fmt.Fprintf(e.w, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// series writes `name{labels} value`, labels sorted for determinism. A
// positive le appends the histogram's le label last, matching the convention
// of prometheus/client_golang output. The line is built in a reused buffer,
// so what a scrape allocates does not depend on the values it writes.
func (e *PromEncoder) series(name string, labels Labels, le, value float64) {
	if e.err != nil {
		return
	}
	e.keys = e.keys[:0]
	for k := range labels {
		e.keys = append(e.keys, k)
	}
	sort.Strings(e.keys)
	b := append(e.line[:0], name...)
	sep := byte('{')
	for _, k := range e.keys {
		b = append(append(b, sep), k...)
		b = strconv.AppendQuote(append(b, '='), labels[k])
		sep = ','
	}
	if le > 0 {
		b = append(append(b, sep), `le="`...)
		b = append(strconv.AppendFloat(b, le, 'g', -1, 64), '"')
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	b = strconv.AppendFloat(append(b, ' '), value, 'g', -1, 64)
	e.line = append(b, '\n')
	_, e.err = e.w.Write(e.line)
}

// Counter writes one counter series. name should end in _total by convention.
func (e *PromEncoder) Counter(name, help string, labels Labels, value float64) {
	e.header(name, help, "counter")
	e.series(name, labels, 0, value)
}

// Gauge writes one gauge series.
func (e *PromEncoder) Gauge(name, help string, labels Labels, value float64) {
	e.header(name, help, "gauge")
	e.series(name, labels, 0, value)
}

// Histogram writes one histogram series (cumulative _bucket ladder, _sum,
// _count) from h's counters, with durations converted to seconds. The +Inf
// bucket and _count are the same sum of h's counters, so the ladder always
// tops out at the count.
func (e *PromEncoder) Histogram(name, help string, labels Labels, h *BucketHistogram) {
	e.header(name, help, "histogram")
	bucket := name + "_bucket"
	var cum int64
	for i, ub := range promBuckets {
		cum += h.counts[i].Load()
		e.series(bucket, labels, ub.Seconds(), float64(cum))
	}
	cum += h.counts[len(promBuckets)].Load()
	e.series(bucket, labels, math.Inf(1), float64(cum))
	e.series(name+"_sum", labels, 0, time.Duration(h.sum.Load()).Seconds())
	e.series(name+"_count", labels, 0, float64(cum))
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
