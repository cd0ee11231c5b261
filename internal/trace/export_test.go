package trace

// OpenGoSpans reports how many spans s, the sink StartFile installs, holds
// open.
func OpenGoSpans(s Sink) int {
	g := s.(*goTraceSink)
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.open)
}
