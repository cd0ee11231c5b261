package metrics

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// parsePromText is a minimal validator of the text exposition format: every
// non-comment line must be `name{labels} value` with a parseable float, every
// series name must have seen a preceding # TYPE, and families must not be
// interleaved. It returns the parsed series values keyed by the full series
// string (name + label set).
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	typed := make(map[string]string)
	series := make(map[string]float64)
	var lastFamily string
	closed := make(map[string]bool)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := parts[2], parts[3]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			if typed[name] != "" {
				t.Fatalf("line %d: duplicate TYPE for %q", ln+1, name)
			}
			typed[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		key, valStr := line[:idx], line[idx+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("line %d: unterminated label set: %q", ln+1, line)
			}
			name = name[:i]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if typed[family] == "" && typed[name] == "" {
			t.Fatalf("line %d: series %q has no TYPE header", ln+1, name)
		}
		if lastFamily != "" && family != lastFamily && closed[family] {
			t.Fatalf("line %d: family %q interleaved (reopened after %q)", ln+1, family, lastFamily)
		}
		if lastFamily != family {
			if lastFamily != "" {
				closed[lastFamily] = true
			}
			lastFamily = family
		}
		if _, dup := series[key]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, key)
		}
		series[key] = val
	}
	return series
}

func TestPromEncoderCounterGauge(t *testing.T) {
	var sb strings.Builder
	e := NewPromEncoder(&sb)
	e.Counter("x_total", "an x", Labels{"target": "a"}, 3)
	e.Counter("x_total", "an x", Labels{"target": "b"}, 4)
	e.Gauge("y", "a y", nil, 1.5)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	got := parsePromText(t, sb.String())
	if got[`x_total{target="a"}`] != 3 || got[`x_total{target="b"}`] != 4 {
		t.Fatalf("counter series wrong: %v", got)
	}
	if got["y"] != 1.5 {
		t.Fatalf("gauge wrong: %v", got)
	}
	if strings.Count(sb.String(), "# TYPE x_total") != 1 {
		t.Fatalf("family header repeated:\n%s", sb.String())
	}
}

func TestPromHistogramCumulativeAndExact(t *testing.T) {
	var h BucketHistogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond) // 1ms..100ms
	}
	var sb strings.Builder
	e := NewPromEncoder(&sb)
	e.Histogram("lat_seconds", "latency", Labels{"target": "w"}, &h)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	got := parsePromText(t, sb.String())
	if got[`lat_seconds_count{target="w"}`] != 100 {
		t.Fatalf("count = %v, want 100", got[`lat_seconds_count{target="w"}`])
	}
	wantSum := 0.001 * (100 * 101 / 2)
	if s := got[`lat_seconds_sum{target="w"}`]; s < wantSum-1e-9 || s > wantSum+1e-9 {
		t.Fatalf("sum = %v, want %v", s, wantSum)
	}
	// Cumulative: bucket counts must be non-decreasing across the ladder.
	prev := -1.0
	for _, ub := range promBuckets {
		key := leKey("lat_seconds", `target="w",`, ub)
		v, ok := got[key]
		if !ok {
			t.Fatalf("missing bucket %s in:\n%s", key, sb.String())
		}
		if v < prev {
			t.Fatalf("bucket %s = %v decreased below %v", key, v, prev)
		}
		prev = v
	}
	if got[`lat_seconds_bucket{target="w",le="+Inf"}`] != 100 {
		t.Fatal("+Inf bucket must equal count")
	}
	// 10ms bound holds samples 1..10ms.
	if v := got[`lat_seconds_bucket{target="w",le="0.01"}`]; v != 10 {
		t.Fatalf("le=0.01 bucket = %v, want 10", v)
	}
}

// countOf is how many samples h has observed.
func countOf(h *BucketHistogram) int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// leKey is the series key of one bucket of a histogram family.
func leKey(family, labels string, ub time.Duration) string {
	return fmt.Sprintf(`%s_bucket{%sle="%s"}`, family, labels, strconv.FormatFloat(ub.Seconds(), 'g', -1, 64))
}

// TestPromHistogramExactLeCounts: 300k observations, more than the 2^18 raw
// samples a Histogram keeps, on both edges of every bucket (a bound is
// inclusive, the next nanosecond is the next bucket's) and past the last
// bound, export exact cumulative counts and an exact sum.
func TestPromHistogramExactLeCounts(t *testing.T) {
	const n = 300_000
	var h BucketHistogram
	var wantSum time.Duration
	for i := 0; i < n; i++ {
		// k is the bucket it belongs in, the last one +Inf's; round by
		// round it takes the upper and the lower edge.
		round, k := i/(len(promBuckets)+1), i%(len(promBuckets)+1)
		var d time.Duration
		switch {
		case k == len(promBuckets):
			d = promBuckets[k-1] + time.Duration(i)
		case round%2 == 0:
			d = promBuckets[k]
		case k == 0:
			d = 0
		default:
			d = promBuckets[k-1] + 1
		}
		h.Observe(d)
		wantSum += d
	}
	var sb strings.Builder
	e := NewPromEncoder(&sb)
	e.Histogram("x_seconds", "exact", nil, &h)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	got := parsePromText(t, sb.String())
	per := float64(n / (len(promBuckets) + 1))
	for k, ub := range promBuckets {
		if v, want := got[leKey("x_seconds", "", ub)], per*float64(k+1); v != want {
			t.Errorf("le=%v: %v, want exactly %v", ub, v, want)
		}
	}
	if got[`x_seconds_bucket{le="+Inf"}`] != n || got[`x_seconds_count`] != n {
		t.Errorf("+Inf = %v, count = %v, want %d", got[`x_seconds_bucket{le="+Inf"}`], got[`x_seconds_count`], n)
	}
	if got[`x_seconds_sum`] != wantSum.Seconds() {
		t.Errorf("sum = %v, want %v", got[`x_seconds_sum`], wantSum.Seconds())
	}
}

func TestSpanSinkAggregatesAndChains(t *testing.T) {
	ring := trace.NewBuffer(256)
	sink := NewSpanSink(ring)

	parent := trace.BeginSpan(sink, "invoke", "w", 0)
	run := trace.NewSpanID()
	trace.Enqueue(sink, run, "w", parent)
	sink.Record(trace.Event{Op: trace.OpPost, Target: "w"})
	time.Sleep(2 * time.Millisecond)
	trace.BeginSpanID(sink, run, "run", "w", parent)
	time.Sleep(time.Millisecond)
	trace.EndSpan(sink, run, "run", "w")
	trace.EndSpan(sink, parent, "invoke", "w")
	sink.Record(trace.Event{Op: trace.OpHelped, Target: "w"})
	sink.Record(trace.Event{Op: trace.OpShed, Target: "w"})

	tm := sink.Target("w")
	if tm == nil {
		t.Fatal("target metrics not created")
	}
	if countOf(&tm.Invoke) != 1 || countOf(&tm.Run) != 1 || countOf(&tm.Sojourn) != 1 {
		t.Fatalf("histogram counts invoke=%d run=%d sojourn=%d, want 1/1/1",
			countOf(&tm.Invoke), countOf(&tm.Run), countOf(&tm.Sojourn))
	}
	if d := time.Duration(tm.Sojourn.sum.Load()); d < time.Millisecond {
		t.Fatalf("sojourn %v, want >= 2ms-ish", d)
	}
	if tm.Posts.Value() != 1 || tm.Helped.Value() != 1 || tm.Sheds.Value() != 1 {
		t.Fatal("counters not incremented")
	}
	if sink.Open() != 0 {
		t.Fatalf("open spans = %d, want 0 after ends", sink.Open())
	}
	// Chained ring saw every event and can still reconstruct the tree.
	tree := trace.BuildTree(ring.Snapshot())
	if tree.Find("invoke", "w") == nil || tree.Find("run", "w") == nil {
		t.Fatalf("chained buffer missing spans:\n%s", ring.Dump())
	}

	var sb strings.Builder
	if err := sink.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := parsePromText(t, sb.String())
	if got[`repro_run_duration_seconds_count{target="w"}`] != 1 {
		t.Fatalf("run count missing:\n%s", sb.String())
	}
	if got[`repro_helped_total{target="w"}`] != 1 {
		t.Fatalf("helped counter missing:\n%s", sb.String())
	}
	if _, ok := got["repro_spans_open"]; !ok {
		t.Fatalf("spans_open gauge missing:\n%s", sb.String())
	}
}
