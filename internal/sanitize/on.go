//go:build ompsan

package sanitize

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/gid"
)

// Enabled reports whether the ompsan sanitizer is compiled in.
const Enabled = true

// checks counts affinity assertions process-wide (see Checks).
var checks atomic.Int64

// Checks returns how many affinity assertions have run process-wide. Tests
// use it to prove the sanitizer was measurably exercised, not merely
// compiled in.
func Checks() int64 { return checks.Load() }

// Home is a single-goroutine confinement context: the stamp of the one
// goroutine allowed to mutate the state guarded by it.
type Home struct {
	// id is the bound goroutine id, 0 while unbound. It is the only field
	// the hot path reads.
	id atomic.Uint64

	mu    sync.Mutex
	kind  string // e.g. "eventloop", "reactor", "worker"
	name  string // the owning executor's target name
	stack []byte // goroutine stack captured at Bind
}

// Bind stamps the calling goroutine as the home context and captures its
// stack, so a later violation can show where the context was established.
// Call it from the owning goroutine itself (executor start or supervised
// restart); rebinding replaces the previous stamp.
func (h *Home) Bind(kind, name string) {
	h.mu.Lock()
	h.kind, h.name = kind, name
	h.stack = debug.Stack()
	h.mu.Unlock()
	h.id.Store(uint64(gid.Current()))
}

// Unbind clears the stamp. Call it when the owning goroutine exits: checks
// against an unbound Home pass vacuously (the executor is restarting and
// no goroutine is the home), which keeps crash/restart windows from
// turning into false positives.
func (h *Home) Unbind() { h.id.Store(0) }

// Check asserts the calling goroutine is the bound home context and
// panics with both stacks if it is not. The hit path is one atomic load
// plus gid.Current; the label "op subject" is built only on a violation.
func (h *Home) Check(op, subject string) {
	home := h.id.Load()
	if home == 0 {
		return
	}
	checks.Add(1)
	cur := uint64(gid.Current())
	if cur == home {
		return
	}
	panic(h.violation(op+" "+subject, cur, home))
}

// Violate reports a violation detected by an independent mechanism (the
// caller already knows the current goroutine is not the home), so the
// panic carries the same two-stack diagnostic as Check.
func (h *Home) Violate(op string) {
	panic(h.violation(op, uint64(gid.Current()), h.id.Load()))
}

// violation renders the two-stack panic message: what happened, on which
// goroutine, and the stacks of both the violating goroutine and the home
// binding.
func (h *Home) violation(op string, cur, home uint64) string {
	h.mu.Lock()
	kind, name, bound := h.kind, h.name, h.stack
	h.mu.Unlock()
	return fmt.Sprintf(
		"ompsan: %s on goroutine %d, but %s %q state is confined to its home context (goroutine %d)\n\n"+
			"-- violating goroutine stack --\n%s\n-- home context bound at --\n%s",
		op, cur, kind, name, home, debug.Stack(), bound)
}

// Describe renders the binding for inclusion in a caller-owned diagnostic:
// kind, name, home goroutine id, and the stack captured at Bind.
func (h *Home) Describe() string {
	home := h.id.Load()
	if home == 0 {
		return ""
	}
	h.mu.Lock()
	kind, name, bound := h.kind, h.name, h.stack
	h.mu.Unlock()
	return fmt.Sprintf("%s %q home context is goroutine %d\n-- home context bound at --\n%s",
		kind, name, home, bound)
}

// Members is a multi-goroutine confinement context: the set of goroutines
// (a worker pool's workers) allowed to run a target's blocks.
type Members struct {
	mu     sync.Mutex
	kind   string
	name   string
	stacks map[uint64][]byte // member gid -> join stack
}

// Join adds the calling goroutine to the member set, capturing its stack
// for violation diagnostics.
func (m *Members) Join(kind, name string) {
	id := uint64(gid.Current())
	m.mu.Lock()
	m.kind, m.name = kind, name
	if m.stacks == nil {
		m.stacks = make(map[uint64][]byte)
	}
	m.stacks[id] = debug.Stack()
	m.mu.Unlock()
}

// Leave removes the calling goroutine from the member set.
func (m *Members) Leave() {
	id := uint64(gid.Current())
	m.mu.Lock()
	delete(m.stacks, id)
	m.mu.Unlock()
}

// Check asserts the calling goroutine is a current member and panics with
// both stacks (the violator's and the nearest member's join stack, as the
// closest thing a set has to a single home binding) if it is not.
func (m *Members) Check(op, subject string) {
	checks.Add(1)
	id := uint64(gid.Current())
	m.mu.Lock()
	if len(m.stacks) == 0 {
		// No members: the pool has not started or is shut down / between
		// supervised restarts. Pass vacuously, like an unbound Home.
		m.mu.Unlock()
		return
	}
	_, ok := m.stacks[id]
	if ok {
		m.mu.Unlock()
		return
	}
	kind, name := m.kind, m.name
	var sample []byte
	var sampleID uint64
	for mid, st := range m.stacks {
		sample, sampleID = st, mid
		break
	}
	n := len(m.stacks)
	m.mu.Unlock()
	msg := fmt.Sprintf(
		"ompsan: %s %s on goroutine %d, which is not one of the %d member goroutine(s) of %s %q\n\n"+
			"-- violating goroutine stack --\n%s",
		op, subject, id, n, kind, name, debug.Stack())
	if sample != nil {
		msg += fmt.Sprintf("\n-- a member (goroutine %d) joined at --\n%s", sampleID, sample)
	}
	panic(msg)
}
