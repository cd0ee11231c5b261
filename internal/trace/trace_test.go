package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordAndSnapshot(t *testing.T) {
	b := NewBuffer(64)
	b.Record(Event{Op: OpInvoke, Target: "worker", Mode: "nowait", Gid: 7})
	b.Record(Event{Op: OpPost, Target: "worker"})
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	snap := b.Snapshot()
	if snap[0].Op != OpInvoke || snap[1].Op != OpPost {
		t.Fatalf("snapshot order: %v", snap)
	}
	if snap[0].Seq >= snap[1].Seq {
		t.Fatal("sequence numbers not increasing")
	}
	if snap[0].Time.IsZero() {
		t.Fatal("timestamp not filled")
	}
}

func TestRingOverwrite(t *testing.T) {
	b := NewBuffer(16)
	for i := 0; i < 40; i++ {
		b.Record(Event{Op: OpHelped})
	}
	if b.Len() != 16 {
		t.Fatalf("Len = %d, want capacity 16", b.Len())
	}
	snap := b.Snapshot()
	// Oldest retained event is #25 (1-indexed seq).
	if snap[0].Seq != 25 {
		t.Fatalf("oldest seq = %d, want 25", snap[0].Seq)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatal("snapshot not in order after wraparound")
		}
	}
}

func TestCapacityClamp(t *testing.T) {
	b := NewBuffer(1)
	for i := 0; i < 20; i++ {
		b.Record(Event{})
	}
	if b.Len() != 16 {
		t.Fatalf("Len = %d, want clamped capacity 16", b.Len())
	}
}

func TestCountOpAndDump(t *testing.T) {
	b := NewBuffer(32)
	b.Record(Event{Op: OpInline, Target: "edt", Mode: "wait"})
	b.Record(Event{Op: OpPost, Target: "worker", Mode: "nowait"})
	b.Record(Event{Op: OpPost, Target: "worker", Mode: "await"})
	if b.CountOp(OpPost) != 2 || b.CountOp(OpInline) != 1 || b.CountOp(OpWait) != 0 {
		t.Fatal("CountOp")
	}
	dump := b.Dump()
	for _, want := range []string{"inline", "target=edt", "mode=nowait", "post"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestReset(t *testing.T) {
	b := NewBuffer(16)
	b.Record(Event{})
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestConcurrentRecord(t *testing.T) {
	b := NewBuffer(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Record(Event{Op: OpInvoke, Time: time.Now()})
			}
		}()
	}
	wg.Wait()
	if b.Len() != 800 {
		t.Fatalf("Len = %d, want 800", b.Len())
	}
}

func TestOpStrings(t *testing.T) {
	ops := map[Op]string{
		OpInvoke: "invoke", OpInline: "inline", OpPost: "post", OpWait: "wait",
		OpAwaitEnter: "await-enter", OpAwaitExit: "await-exit", OpHelped: "helped",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Fatalf("%v", op)
		}
	}
	if !strings.Contains(Op(99).String(), "99") {
		t.Fatal("unknown op")
	}
}

func BenchmarkRecord(b *testing.B) {
	buf := NewBuffer(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Record(Event{Op: OpInvoke, Target: "worker"})
	}
}

// TestConcurrentRecordSeqOrdered is the regression test for the Seq/ring
// ordering race: when Seq was assigned atomically before taking the ring
// mutex, two racing recorders could store their events in the opposite
// order from their sequence numbers, so a Snapshot was not monotonically
// ordered. With Seq assigned under the mutex the snapshot must be strictly
// ascending with no gaps.
func TestConcurrentRecordSeqOrdered(t *testing.T) {
	b := NewBuffer(8192)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Record(Event{Op: OpPost, Time: time.Now()})
			}
		}()
	}
	wg.Wait()
	snap := b.Snapshot()
	if len(snap) != 4000 {
		t.Fatalf("Snapshot len = %d, want 4000", len(snap))
	}
	for i, e := range snap {
		if e.Seq != uint64(i+1) {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (out-of-order or gapped ring)", i, e.Seq, i+1)
		}
	}
}
