//go:build !ompsan

package sanitize

// Enabled reports whether the ompsan sanitizer is compiled in. It is a
// constant, so `if sanitize.Enabled { ... }` blocks are dead-code
// eliminated from untagged builds.
const Enabled = false

// Home is a single-goroutine confinement context. Untagged: empty, and
// every method is a no-op.
type Home struct{}

// Bind stamps the calling goroutine as the home context. No-op untagged.
func (h *Home) Bind(kind, name string) {}

// Unbind clears the stamp (the owning goroutine is exiting). No-op
// untagged.
func (h *Home) Unbind() {}

// Check asserts the calling goroutine is the bound home context; op and
// subject are joined into the report's label only on a violation. No-op
// untagged.
func (h *Home) Check(op, subject string) {}

// Violate unconditionally reports a confinement violation detected by an
// independent mechanism (e.g. the gui toolkit's policy check), so the
// panic carries both stacks. No-op untagged — callers gate on Enabled and
// provide their own untagged failure path.
func (h *Home) Violate(op string) {}

// Describe renders the binding (kind, name, goroutine, bind stack) for
// inclusion in diagnostics. Empty untagged.
func (h *Home) Describe() string { return "" }

// Members is a multi-goroutine confinement context. Untagged: empty, and
// every method is a no-op.
type Members struct{}

// Join adds the calling goroutine to the member set. No-op untagged.
func (m *Members) Join(kind, name string) {}

// Leave removes the calling goroutine from the member set. No-op untagged.
func (m *Members) Leave() {}

// Check asserts the calling goroutine is a member. No-op untagged.
func (m *Members) Check(op, subject string) {}

// Checks returns how many affinity assertions have run process-wide: the
// "measurably exercised" counter sancheck tests assert on. Zero untagged.
func Checks() int64 { return 0 }
