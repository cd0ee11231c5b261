// Package gui simulates the GUI framework substrate of the paper's
// Evaluation A: a Swing-like widget toolkit whose components are confined to
// an event-dispatch thread. There is no display in this environment — what
// the evaluation measures is the EDT's behaviour, so the toolkit reproduces
// precisely the properties that matter:
//
//   - widgets may only be mutated on the EDT ("GUI components are not
//     thread-safe and access is strictly confined to the EDT"); violations
//     are detected and, by policy, panic or are counted;
//   - events (button clicks) are dispatched by the EDT in FIFO order;
//   - the standard Java offloading idioms are ported as baselines:
//     SwingWorker (worker.go) and ExecutorService + InvokeLater.
package gui

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/eventloop"
	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/sanitize"
)

// ConfinementPolicy selects how off-EDT widget access is handled.
type ConfinementPolicy int

const (
	// PanicOnViolation panics on off-EDT access (fail fast; default, like
	// running Swing with a ThreadCheckingRepaintManager).
	PanicOnViolation ConfinementPolicy = iota
	// CountViolations records violations without interrupting execution
	// (how real Swing misbehaves silently; useful in benchmarks).
	CountViolations
)

// Toolkit owns the EDT and the widget tree of one simulated application.
type Toolkit struct {
	loop       *eventloop.Loop
	registry   *gid.Registry
	policy     ConfinementPolicy
	violations atomic.Int64
	updates    atomic.Int64

	workerOnce sync.Once
	workerPool *executor.WorkerPool
}

// NewToolkit creates a toolkit with a running EDT registered in reg (nil
// means gid.Default).
func NewToolkit(reg *gid.Registry) *Toolkit {
	if reg == nil {
		reg = &gid.Default
	}
	l := eventloop.New("edt", reg)
	l.Start()
	return &Toolkit{loop: l, registry: reg}
}

// SetPolicy selects the confinement policy (default PanicOnViolation).
func (tk *Toolkit) SetPolicy(p ConfinementPolicy) { tk.policy = p }

// EDT returns the toolkit's event loop, for registration as a virtual
// target and for posting events.
func (tk *Toolkit) EDT() *eventloop.Loop { return tk.loop }

// InvokeLater schedules fn on the EDT (SwingUtilities.invokeLater).
func (tk *Toolkit) InvokeLater(fn func()) *executor.Completion { return tk.loop.Post(fn) }

// InvokeAndWait runs fn on the EDT and blocks until done
// (SwingUtilities.invokeAndWait).
func (tk *Toolkit) InvokeAndWait(fn func()) error { return tk.loop.InvokeAndWait(fn) }

// IsDispatchThread reports whether the caller is the EDT
// (SwingUtilities.isEventDispatchThread).
func (tk *Toolkit) IsDispatchThread() bool { return tk.loop.Owns() }

// Violations returns the number of detected off-EDT accesses.
func (tk *Toolkit) Violations() int64 { return tk.violations.Load() }

// Updates returns the number of widget mutations performed.
func (tk *Toolkit) Updates() int64 { return tk.updates.Load() }

// Dispose stops the EDT and the SwingWorker pool, if one was created.
func (tk *Toolkit) Dispose() {
	if tk.workerPool != nil {
		tk.workerPool.Shutdown()
	}
	tk.loop.Stop()
}

// checkConfinement enforces the single-thread rule for a mutation of widget
// name. Under -tags=ompsan it additionally cross-validates the registry's
// ownership answer against the loop's gid stamp (two independent
// mechanisms must agree that the caller is the EDT), and a violating
// mutation panics with both stacks — the violator's and the one that
// bound the EDT — instead of just the violator's. The CountViolations
// policy keeps its non-panicking semantics either way, so deliberate-
// violation benchmarks survive the sanitizer.
func (tk *Toolkit) checkConfinement(widget string) {
	if tk.loop.Owns() {
		tk.loop.SanCheck("mutate widget", widget)
		return
	}
	tk.violations.Add(1)
	if tk.policy == PanicOnViolation {
		if sanitize.Enabled {
			tk.loop.SanViolate("mutate widget " + widget)
		}
		panic(fmt.Sprintf("gui: %s mutated off the event-dispatch thread", widget))
	}
}

// widget embeds the confinement machinery common to all components.
type widget struct {
	tk   *Toolkit
	name string
	mu   sync.Mutex
}

func (w *widget) mutate(fn func()) {
	w.tk.checkConfinement(w.name)
	w.mu.Lock()
	fn()
	w.mu.Unlock()
	w.tk.updates.Add(1)
}

func (w *widget) read(fn func()) {
	w.mu.Lock()
	fn()
	w.mu.Unlock()
}

// Label is a text component (javax.swing.JLabel).
type Label struct {
	widget
	text string
}

// NewLabel creates a label owned by tk.
func (tk *Toolkit) NewLabel(name string) *Label {
	return &Label{widget: widget{tk: tk, name: name}}
}

// SetText mutates the label text; EDT only.
func (l *Label) SetText(s string) { l.mutate(func() { l.text = s }) }

// Text returns the label text.
func (l *Label) Text() string {
	var s string
	l.read(func() { s = l.text })
	return s
}

// ProgressBar is a bounded progress component (javax.swing.JProgressBar).
type ProgressBar struct {
	widget
	value, max int
	history    []int
}

// NewProgressBar creates a progress bar with the given maximum.
func (tk *Toolkit) NewProgressBar(name string, max int) *ProgressBar {
	if max < 1 {
		max = 1
	}
	return &ProgressBar{widget: widget{tk: tk, name: name}, max: max}
}

// SetValue mutates the progress value; EDT only. Values are clamped to
// [0, Max] and recorded in order for test assertions.
func (p *ProgressBar) SetValue(v int) {
	p.mutate(func() {
		if v < 0 {
			v = 0
		}
		if v > p.max {
			v = p.max
		}
		p.value = v
		p.history = append(p.history, v)
	})
}

// Value returns the current progress value.
func (p *ProgressBar) Value() int {
	var v int
	p.read(func() { v = p.value })
	return v
}

// Max returns the progress bar's maximum.
func (p *ProgressBar) Max() int { return p.max }

// History returns the sequence of values set so far.
func (p *ProgressBar) History() []int {
	var h []int
	p.read(func() { h = append(h, p.history...) })
	return h
}

// Button is a clickable component (javax.swing.JButton). Clicking enqueues
// the registered handler as an event on the EDT — the inversion of control
// of Section I: the framework calls the handler, never the reverse.
type Button struct {
	widget
	handler func()
	clicks  atomic.Int64
}

// NewButton creates a button with the given click handler.
func (tk *Toolkit) NewButton(name string, onClick func()) *Button {
	return &Button{widget: widget{tk: tk, name: name}, handler: onClick}
}

// SetHandler replaces the click handler; EDT only.
func (b *Button) SetHandler(fn func()) { b.mutate(func() { b.handler = fn }) }

// Click fires the button's event from any goroutine (user input arrives
// from outside the EDT) and returns the handler's Completion. The returned
// completion covers the handler body only — offloaded continuations are the
// application's business, exactly as in Swing.
func (b *Button) Click() *executor.Completion {
	b.clicks.Add(1)
	var h func()
	b.read(func() { h = b.handler })
	if h == nil {
		return executor.NewCompletedCompletion(nil)
	}
	return b.tk.loop.PostLabeled(b.name, h)
}

// Clicks returns how many times the button was clicked.
func (b *Button) Clicks() int64 { return b.clicks.Load() }
