package sim

import (
	"strings"
	"testing"
	"time"
)

func TestDecisionLogStringIsStable(t *testing.T) {
	mk := func() *DecisionLog {
		var l DecisionLog
		l.Append(Decision{Step: 0, Kind: "run", Target: "edt", Seq: 1, Alts: 3})
		l.Append(Decision{Step: 1, Kind: "timer", Target: "pool", Seq: 7, Alts: 1, Virt: 5 * time.Millisecond})
		l.Append(Decision{Step: 2, Kind: "help", Target: "pool", Seq: 2, Alts: 2, Virt: 5 * time.Millisecond})
		return &l
	}
	a, b := mk().String(), mk().String()
	if a != b {
		t.Fatalf("identical logs rendered differently:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "00001 timer pool#7 alts=1 t=5ms") {
		t.Fatalf("unexpected line format:\n%s", a)
	}
	if lines := strings.Count(a, "\n"); lines != 3 {
		t.Fatalf("log has %d lines, want 3:\n%s", lines, a)
	}
}

func TestDecisionLogBranches(t *testing.T) {
	var l DecisionLog
	l.Append(Decision{Alts: 1})
	l.Append(Decision{Alts: 2})
	l.Append(Decision{Alts: 5})
	if got := l.Branches(); got != 2 {
		t.Fatalf("Branches = %d, want 2", got)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	l.Reset()
	if l.Len() != 0 || l.Branches() != 0 {
		t.Fatalf("Reset left Len=%d Branches=%d", l.Len(), l.Branches())
	}
}
