package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
)

// spanKind names a harness span. Spans are taken in the benchmark's own
// closures around calls into a layer; the runtime is not instrumented.
type spanKind uint8

const (
	spNone spanKind = iota
	spOp            // root: the whole operation
	spEDTQueue
	spEDTHandler
	spInvokeNowait
	spInvokeAwait
	spInvokeNameAs
	spWorkerQueue
	spWorkerBody
	spUpdateQueue
	spJoinWait
	spHTTPSmall
	spHTTPLarge
	spClientWrite
	spLoopQueue
	spHandler
	spSendCall
	spFirstDelivery
	spLastDelivery
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spNone:          "",
	spOp:            "op",
	spEDTQueue:      "edt_queue",
	spEDTHandler:    "edt_handler",
	spInvokeNowait:  "invoke_call_nowait",
	spInvokeAwait:   "invoke_call_await",
	spInvokeNameAs:  "invoke_call_nameas",
	spWorkerQueue:   "worker_queue",
	spWorkerBody:    "worker_body",
	spUpdateQueue:   "update_queue",
	spJoinWait:      "join_wait",
	spHTTPSmall:     "http_request_small",
	spHTTPLarge:     "http_request_large",
	spClientWrite:   "client_write",
	spLoopQueue:     "loop_queue",
	spHandler:       "handler",
	spSendCall:      "send_call",
	spFirstDelivery: "first_delivery",
	spLastDelivery:  "last_delivery",
}

type span struct {
	op           uint64
	kind, parent spanKind
	start, end   int64 // nanotime
}

// tracer keeps the spans of sampled operations in a fixed slab; add is safe
// from any goroutine. Spans past the slab's end are counted, not kept.
type tracer struct {
	every   uint64 // one operation in every is traced
	next    atomic.Int64
	spans   []span
	dropped atomic.Int64
}

const tracerCap = 1 << 17

func newTracer(every uint64) *tracer {
	return &tracer{every: every, spans: make([]span, tracerCap)}
}

// sampled reports whether operation id is one whose spans are recorded. A
// nil tracer samples nothing, so call sites need no second check.
func (t *tracer) sampled(id uint64) bool { return t != nil && id%t.every == 0 }

func (t *tracer) add(op uint64, kind, parent spanKind, start, end int64) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{op: op, kind: kind, parent: parent, start: start, end: end}
}

func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// p50s returns the median duration in µs of every span kind recorded.
func (t *tracer) p50s() map[spanKind]float64 {
	byKind := make(map[spanKind][]int64)
	for _, s := range t.recorded() {
		byKind[s.kind] = append(byKind[s.kind], s.end-s.start)
	}
	out := make(map[spanKind]float64, len(byKind))
	for k, d := range byKind {
		slices.Sort(d)
		out[k] = us(percentile(d, 0.5))
	}
	return out
}

// write stores the spans as JSON under dir. A span's self time is its
// duration minus the part its children (same op, parent == its name) cover.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"sample_every\":%d,\"dropped\":%d,\"spans\":[", workload, t.every, t.dropped.Load())
	for i, s := range t.recorded() {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"op\":%d,\"name\":%q,\"parent\":%q,\"start_ns\":%d,\"end_ns\":%d}",
			s.op, spanNames[s.kind], spanNames[s.parent], s.start, s.end)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
