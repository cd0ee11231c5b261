//go:build !ompsan

package sanitize

import "testing"

// Untagged builds must make every primitive a free no-op: checks pass from
// any goroutine, nothing is counted, and Enabled is a false constant so
// `if sanitize.Enabled` blocks compile out.
func TestUntaggedNoOps(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled must be false untagged")
	}
	var h Home
	h.Bind("test", "x")
	h.Check("anything", "x")
	h.Violate("anything")
	h.Unbind()
	if d := h.Describe(); d != "" {
		t.Fatalf("Describe = %q, want empty", d)
	}
	var m Members
	m.Join("test", "x")
	m.Check("anything", "x")
	m.Leave()
	if Checks() != 0 {
		t.Fatalf("Checks = %d, want 0", Checks())
	}
}
