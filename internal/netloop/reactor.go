package netloop

import (
	"bytes"
	"errors"

	"repro/internal/reactor"
)

// EnableReactor switches the server's transport from goroutine-per-
// connection readers to the readiness-driven reactor: one edge-triggered
// poll goroutine owns every socket and feeds the same dispatch loop, so a
// connection costs a registration instead of a goroutine. Must be called
// before Start. On platforms without an epoll poller it returns
// reactor.ErrUnsupported and the server keeps its portable default
// transport — gate on the error, not the platform.
func (s *Server) EnableReactor() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil || s.closed {
		return errors.New("netloop: EnableReactor must be called before Start")
	}
	if s.reactor != nil {
		return nil
	}
	r, err := reactor.New(s.name+"/reactor", s.registry)
	if err != nil {
		return err
	}
	s.reactor = r
	return nil
}

// Reactor returns the readiness reactor, or nil on the fallback transport.
// Use it to install a readiness-layer or fd-level chaos interceptor or read
// poll-loop stats.
func (s *Server) Reactor() *reactor.Reactor { return s.reactor }

// reactorAccept wires one accepted connection into the server. Runs on the
// poll goroutine.
func (s *Server) reactorAccept(rc *reactor.Conn) reactor.HandlerFuncs {
	s.accepted.Add(1)
	if !s.takeConnSlot() {
		// At the MaxConns cap: shed at accept. Close flushes the busy line
		// before the disconnect (the reactor's flush-before-close path).
		s.connShed.Add(1)
		if s.busyLine != "" {
			rc.Write([]byte(s.busyLine + "\n"))
		}
		rc.Close()
		return reactor.HandlerFuncs{}
	}
	c := s.newClient(nil, rc)
	rc.SetContext(c)
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.clients[c.id] = c
	}
	s.mu.Unlock()
	if closed {
		rc.Close()
		c.releaseSlot()
		return reactor.HandlerFuncs{}
	}
	if d := s.idleDeadline; d > 0 {
		rc.SetIdleDeadline(d)
	}
	if s.onConnect != nil {
		s.loop.Post(func() { s.onConnect(c) })
	}
	return reactor.HandlerFuncs{
		OnReadable: func(_ *reactor.Conn, data []byte) { s.reactorData(c, data) },
		OnClose:    func(_ *reactor.Conn, err error) { s.clientGone(c) },
	}
}

// maxLineLen bounds an unterminated line fragment buffered across
// readiness events — the same cap bufio.Scanner imposes on the default
// transport (bufio.MaxScanTokenSize). Without it a peer streaming bytes
// with no newline grows c.partial without bound: a per-connection memory
// DoS the goroutine-per-connection transport never had.
const maxLineLen = 64 << 10

// reactorData reassembles line-delimited messages from raw readiness
// payloads. data aliases the reactor's scratch buffer, so any fragment that
// survives this call is copied into the client's partial buffer; a line
// split across readiness events (short reads) is delivered whole once its
// terminator arrives. Poll-goroutine confined.
func (s *Server) reactorData(c *Client, data []byte) {
	buf := data
	if len(c.partial) > 0 {
		c.partial = append(c.partial, data...)
		buf = c.partial
	}
	for {
		i := bytes.IndexByte(buf, '\n')
		if i < 0 {
			break
		}
		line := buf[:i]
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		s.handleLine(c, string(line))
		buf = buf[i+1:]
	}
	if len(buf) > maxLineLen {
		// Oversized unterminated line: drop the fragment and disconnect,
		// mirroring the default transport's scanner giving up at its token
		// cap rather than buffering indefinitely.
		c.partial = nil
		c.rc.Close()
		return
	}
	// Keep (only) the unterminated tail. When buf aliases c.partial this is
	// an in-place shift; when it aliases the scratch buffer it is the copy
	// that lets the fragment outlive the event.
	c.partial = append(c.partial[:0], buf...)
}
