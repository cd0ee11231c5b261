package supervise

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/trace"
)

// Liveness grades what the watchdog last observed about a watched target.
type Liveness int

// The liveness grades: LiveOK targets answer heartbeats, LiveStalled
// targets have an unanswered probe past their threshold (blocked EDT,
// wedged pool, queue not draining), LiveDown targets answer probes with
// executor.ErrTargetDown.
const (
	LiveOK Liveness = iota
	LiveStalled
	LiveDown
)

// String renders the liveness the way /healthz spells it.
func (l Liveness) String() string {
	switch l {
	case LiveOK:
		return "ok"
	case LiveStalled:
		return "stalled"
	case LiveDown:
		return "down"
	default:
		return "unknown"
	}
}

// Report is a point-in-time liveness snapshot of one watched target.
type Report struct {
	Name     string `json:"name"`
	Liveness string `json:"liveness"`
	// LastBeat is when the most recent heartbeat probe was observed
	// complete (zero until the first probe lands).
	LastBeat time.Time `json:"last_beat,omitempty"`
	// StallFor is how long the currently outstanding probe has been
	// unanswered (0 when none is outstanding).
	StallFor time.Duration `json:"stall_for,omitempty"`
	// Stalls counts stall episodes flagged for this target.
	Stalls int64 `json:"stalls"`
	// QueueDepth is the target's queue depth at the last check, when the
	// target exposes executor stats.
	QueueDepth int64 `json:"queue_depth"`
	// LastError is the terminal error of the last failed probe.
	LastError string `json:"last_error,omitempty"`
}

// LivenessValue is the Liveness the snapshot's Liveness string encodes.
func (r Report) LivenessValue() Liveness {
	switch r.Liveness {
	case LiveStalled.String():
		return LiveStalled
	case LiveDown.String():
		return LiveDown
	default:
		return LiveOK
	}
}

type watchEntry struct {
	name       string
	e          executor.Executor
	stallAfter time.Duration

	outstanding *executor.Completion // at most one probe in flight
	sentAt      time.Time
	lastBeat    time.Time
	stalled     bool
	down        bool
	episodes    int64
	lastErr     error
}

// Watchdog heartbeats registered executors and flags the ones that stop
// draining. Each check posts at most one no-op probe per target; a probe
// still unanswered after the target's stall threshold means nothing behind
// the queue is making progress — the loop is blocked, the workers are dead,
// or the backlog's sojourn time exceeds the bound — and the target is
// flagged stalled (trace.OpStall, once per episode) until a probe lands.
type Watchdog struct {
	interval time.Duration
	stalls   atomic.Int64

	mu      sync.Mutex
	entries map[string]*watchEntry
	order   []string

	started  bool
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewWatchdog builds a watchdog that checks every interval (default 100ms).
// Call Watch to register targets, then Start.
func NewWatchdog(interval time.Duration) *Watchdog {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &Watchdog{
		interval: interval,
		entries:  make(map[string]*watchEntry),
		done:     make(chan struct{}),
	}
}

// Watch registers e under name with the given stall threshold (default 10×
// the check interval). Re-watching a name replaces the entry.
func (w *Watchdog) Watch(name string, e executor.Executor, stallAfter time.Duration) {
	if stallAfter <= 0 {
		stallAfter = 10 * w.interval
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.entries[name]; !ok {
		w.order = append(w.order, name)
	}
	w.entries[name] = &watchEntry{name: name, e: e, stallAfter: stallAfter}
}

// Start begins the heartbeat loop. Starting twice is a no-op.
func (w *Watchdog) Start() {
	w.mu.Lock()
	if w.started {
		w.mu.Unlock()
		return
	}
	w.started = true
	w.mu.Unlock()
	w.wg.Add(1)
	go w.run()
}

// Stop halts the heartbeat loop. Outstanding probes are abandoned (they
// belong to their executors and complete or fail there).
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.done) })
	w.wg.Wait()
}

// Stalls returns the total stall episodes flagged across all targets.
func (w *Watchdog) Stalls() int64 { return w.stalls.Load() }

func (w *Watchdog) run() {
	defer w.wg.Done()
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case now := <-t.C:
			w.check(now)
		}
	}
}

// check advances every entry's probe state machine. Probes are posted under
// the watchdog lock; Post only enqueues, so this cannot block on the
// watched target even when it is wedged.
func (w *Watchdog) check(now time.Time) {
	var stalledNames []string
	w.mu.Lock()
	for _, name := range w.order {
		if w.checkEntry(w.entries[name], now) {
			stalledNames = append(stalledNames, name)
		}
	}
	w.mu.Unlock()
	for _, name := range stalledNames {
		trace.Emit(trace.OpStall, name)
	}
}

// checkEntry returns true when the entry entered a new stall episode.
func (w *Watchdog) checkEntry(en *watchEntry, now time.Time) bool {
	if en.outstanding != nil {
		if !en.outstanding.Finished() {
			if !en.stalled && now.Sub(en.sentAt) >= en.stallAfter {
				en.stalled = true
				en.episodes++
				w.stalls.Add(1)
				return true
			}
			return false // keep waiting on the same probe
		}
		en.land(now)
	}
	en.outstanding = en.e.Post(func() {})
	en.sentAt = now
	if en.outstanding.Finished() {
		// Synchronous completion (rejection or inline run): fold it in
		// now rather than waiting a tick.
		en.land(now)
	}
	return false
}

// land folds in the finished probe: the target is answering — it ran the
// probe, or refused it typed.
func (en *watchEntry) land(now time.Time) {
	en.lastErr = en.outstanding.Err()
	en.outstanding = nil
	en.lastBeat = now
	en.stalled = false
	en.down = errors.Is(en.lastErr, executor.ErrTargetDown)
}

// Health reports every watched target's liveness, keyed by watch name.
func (w *Watchdog) Health() map[string]Report {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]Report, len(w.entries))
	for name, en := range w.entries {
		r := Report{
			Name:     name,
			LastBeat: en.lastBeat,
			Stalls:   en.episodes,
		}
		if en.outstanding != nil {
			r.StallFor = now.Sub(en.sentAt)
		}
		if en.lastErr != nil {
			r.LastError = en.lastErr.Error()
		}
		switch {
		case en.down:
			r.Liveness = LiveDown.String()
		case en.stalled:
			r.Liveness = LiveStalled.String()
		default:
			r.Liveness = LiveOK.String()
		}
		if sp, ok := en.e.(interface{ Stats() executor.Stats }); ok {
			r.QueueDepth = sp.Stats().QueueDepth
		}
		out[name] = r
	}
	return out
}
