package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// traceEvent is one record of the Chrome/Perfetto trace-event JSON format
// (the "JSON Array Format" with a traceEvents wrapper, which Perfetto's
// legacy JSON importer accepts).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// ExportTraceEvent writes events as Chrome/Perfetto trace-event JSON:
//
//   - one track (tid) per goroutine — i.e. per worker or EDT;
//   - one complete slice ("X") per span with captured begin and end;
//   - flow arrows (ph "s"/"f") from each OpEnqueue to the begin of the run
//     it became, making the cross-dispatch edge visible;
//   - instant events for the remaining annotation ops;
//   - thread_name metadata naming each track after the target that ran on
//     it (workers and EDTs register this way; plain goroutines keep their
//     gid).
//
// Open the result at https://ui.perfetto.dev (or chrome://tracing).
func ExportTraceEvent(w io.Writer, events []Event) error {
	if len(events) == 0 {
		return json.NewEncoder(w).Encode(traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"})
	}
	epoch := events[0].Time
	for _, e := range events {
		if e.Time.Before(epoch) {
			epoch = e.Time
		}
	}
	us := func(t time.Time) float64 { return float64(t.Sub(epoch)) / float64(time.Microsecond) }

	tree := BuildTree(events)
	out := make([]traceEvent, 0, len(events)+16)

	// Track names: a goroutine that ran a target's spans is that target's
	// worker/EDT; name the track after it.
	trackName := make(map[uint64]string)
	for _, n := range tree.ByID {
		if n.Name == "run" && n.Target != "" && !n.Start.IsZero() && trackName[n.Gid] == "" {
			trackName[n.Gid] = "target " + n.Target
		}
	}
	for _, e := range events {
		if _, ok := trackName[e.Gid]; !ok {
			trackName[e.Gid] = fmt.Sprintf("g%d", e.Gid)
		}
	}
	for tid, name := range trackName {
		out = append(out, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}

	// Slices: one complete event per span with both endpoints captured.
	for _, n := range tree.ByID {
		if n.Start.IsZero() || n.End.IsZero() {
			continue
		}
		name := n.Name
		if n.Target != "" {
			name += " " + n.Target
		}
		args := map[string]any{"span": uint64(n.ID)}
		if n.Parent != 0 {
			args["parent"] = uint64(n.Parent)
		}
		if q := n.QueueDelay(); q > 0 {
			args["queued_us"] = float64(q) / float64(time.Microsecond)
		}
		out = append(out, traceEvent{
			Name: name, Cat: "span", Ph: "X",
			Ts: us(n.Start), Dur: maxf(us(n.End)-us(n.Start), 0.001),
			Pid: 1, Tid: n.Gid, Args: args,
		})
	}

	// Flow arrows: enqueue (producer goroutine) → run begin (consumer).
	for _, e := range events {
		if e.Op != OpEnqueue {
			continue
		}
		n := tree.ByID[e.Span]
		if n == nil || n.Start.IsZero() || n.End.IsZero() {
			continue
		}
		id := fmt.Sprintf("%d", uint64(e.Span))
		out = append(out, traceEvent{
			Name: "dispatch", Cat: "flow", Ph: "s", Ts: us(e.Time),
			Pid: 1, Tid: e.Gid, ID: id,
		})
		out = append(out, traceEvent{
			Name: "dispatch", Cat: "flow", Ph: "f", BP: "e",
			// Nudge the flow target inside the run slice so the importer
			// binds it to the slice rather than the instant before it.
			Ts:  us(n.Start) + 0.0005,
			Pid: 1, Tid: n.Gid, ID: id,
		})
	}

	// Annotations as thread-scoped instants.
	for _, e := range events {
		switch e.Op {
		case OpSpanBegin, OpSpanEnd, OpEnqueue:
			continue
		}
		name := e.Op.String()
		args := map[string]any{}
		if e.Target != "" {
			args["target"] = e.Target
		}
		if e.Mode != "" {
			args["mode"] = e.Mode
		}
		if e.Span != 0 {
			args["span"] = uint64(e.Span)
		}
		out = append(out, traceEvent{
			Name: name, Cat: "op", Ph: "i", S: "t", Ts: us(e.Time),
			Pid: 1, Tid: e.Gid, Args: args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: out, DisplayTimeUnit: "ms"})
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// ExportTraceEventBuffer is ExportTraceEvent over a Buffer's retained events.
func ExportTraceEventBuffer(w io.Writer, b *Buffer) error {
	return ExportTraceEvent(w, b.Snapshot())
}

// WriteFile writes b's retained events to path as trace-event JSON and
// returns a one-line summary of the capture for the caller to print.
func WriteFile(path string, b *Buffer) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	events := b.Snapshot()
	if err := ExportTraceEvent(f, events); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	tree := BuildTree(events)
	return fmt.Sprintf("wrote %d events (%d spans, depth %d, %d overwritten) to %s — open at https://ui.perfetto.dev",
		len(events), len(tree.ByID), tree.Depth(), b.Overwritten(), path), nil
}
