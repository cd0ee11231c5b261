package metrics

import (
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/testutil/raceflag"
	"repro/internal/trace"
)

// allocBytes is the bytes op allocates, whole process, on one P as
// testing.AllocsPerRun measures: MemStats.TotalAlloc (size classes, not
// requested sizes) across one call.
func allocBytes(op func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	op()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSpanSinkSteadyStateAllocatesNothing: once its tables have seen a
// target and a few spans, the sink folds a queued task's span (enqueue,
// begin, end: a sojourn and a run observation) into /metrics without
// allocating. The histograms are fixed counters, and the open-span table
// reuses the slots the ended spans leave.
func TestSpanSinkSteadyStateAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	sink := NewSpanSink(nil)
	cycles := func(n int) {
		for i := 0; i < n; i++ {
			id := trace.NewSpanID()
			trace.Enqueue(sink, id, "worker", 0)
			trace.BeginSpanID(sink, id, "run", "worker", 0)
			trace.EndSpan(sink, id, "run", "worker")
		}
	}
	cycles(10_000)
	if b := allocBytes(func() { cycles(100_000) }); b != 0 {
		t.Errorf("100k spans allocated %d B, want 0", b)
	}
	if n := countOf(&sink.Target("worker").Run); n != 110_000 {
		t.Errorf("run count %d, want 110000", n)
	}
}

// TestScrapeCostIndependentOfObservations: a scrape writes a fixed ladder
// per series, so it allocates the same bytes after 10 observations per
// histogram as after 300k, with their longer counts and sums.
func TestScrapeCostIndependentOfObservations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	sink := NewSpanSink(nil)
	base := time.Unix(1_000_000, 0)
	observe := func(from, to int) {
		for i := from; i < to; i++ {
			id := trace.SpanID(i + 1)
			begin := base.Add(time.Duration(i%977) * time.Microsecond)
			end := begin.Add(time.Duration(i*7919%20_000_003) * time.Microsecond / 1000)
			for _, target := range []string{"edt", "worker"} {
				sink.Record(trace.Event{Op: trace.OpEnqueue, Span: id, Target: target, Time: base})
				sink.Record(trace.Event{Op: trace.OpSpanBegin, Span: id, Name: "run", Target: target, Time: begin})
				sink.Record(trace.Event{Op: trace.OpSpanEnd, Span: id, Name: "run", Target: target, Time: end})
				sink.Record(trace.Event{Op: trace.OpSpanBegin, Span: id | 1<<63, Name: "invoke", Target: target, Time: base})
				sink.Record(trace.Event{Op: trace.OpSpanEnd, Span: id | 1<<63, Name: "invoke", Target: target, Time: end})
				sink.Record(trace.Event{Op: trace.OpPost, Target: target})
			}
		}
	}
	scrape := func() uint64 {
		if err := sink.WritePrometheus(io.Discard); err != nil { // warm-up
			t.Fatal(err)
		}
		return allocBytes(func() { _ = sink.WritePrometheus(io.Discard) })
	}
	observe(0, 10)
	few := scrape()
	observe(10, 300_000)
	many := scrape()
	if got := countOf(&sink.Target("worker").Run); got != 300_000 {
		t.Fatalf("run count %d, want 300000", got)
	}
	t.Logf("scrape: %d B after 10 observations, %d B after 300k", few, many)
	if few != many {
		t.Errorf("scrape allocates %d B after 300k observations, %d B after 10", many, few)
	}
}
