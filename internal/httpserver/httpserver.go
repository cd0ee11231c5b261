// Package httpserver implements the HTTP service of Evaluation B: "an HTTP
// service that provides data encryption to web users. Every time a user
// sends input data with an HTTP request, the server performs a calculation
// and returns the result via the HTTP response."
//
// Two server organizations are compared, as in the paper:
//
//   - Jetty style: thread-per-request from a bounded pool — each request is
//     admitted by a counting semaphore of Workers slots and computes on its
//     own connection goroutine (Jetty's fixed thread pool).
//   - Pyjama style: the accepting goroutine offloads the computation as a
//     target block to a worker virtual target of Workers threads and waits
//     for its completion.
//
// Either organization may additionally parallelize each request's kernel
// with an OpenMP team (the paper's "//omp parallel" per event), which is
// what produces the oversubscription plateau of Figure 9.
//
// Both organizations run on one HTTP/1.1 loop, a goroutine per connection
// that serves one request after another, so the HTTP layer is a constant the
// two share. It speaks, as Client does, only the subset of HTTP/1.1 the
// service uses (wire.go): GET without a body, keep-alive, and replies that
// carry Content-Length. Heads are parsed where they lie in a connection's
// bufio.Reader and written in its bufio.Writer, so a request allocates
// nothing of its own.
package httpserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/supervise"
	"repro/internal/trace"
)

// Mode selects the server organization.
type Mode int

const (
	// Jetty is the bounded thread-per-request organization.
	Jetty Mode = iota
	// Pyjama offloads computations to a worker virtual target.
	Pyjama
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Jetty:
		return "jetty"
	case Pyjama:
		return "pyjama"
	default:
		return "unknown"
	}
}

// Config parameterizes a server.
type Config struct {
	// Mode selects the organization (Jetty or Pyjama).
	Mode Mode
	// Workers bounds concurrent computations (the x-axis of Figure 9).
	Workers int
	// OMPThreads, when > 1, runs each request's kernel on an OpenMP team
	// of that size ("parallelization of each event").
	OMPThreads int
	// KernelBytes is the encryption payload size per request.
	KernelBytes int
	// QoS enables overload protection for the Pyjama organization (nil
	// reproduces the seed behaviour: every request queues, however long
	// the queue). See QoSConfig.
	QoS *QoSConfig
	// Supervise enables the failure model for the Pyjama organization:
	// the worker target is watched for stalls and (with Restart) built as
	// a supervised pool that respawns crashed workers, and /healthz reports
	// per-target state instead of a static 200. See SuperviseConfig.
	Supervise *SuperviseConfig
	// Chaos, when set, wraps the Pyjama worker target in the
	// fault-injection middleware so failure drills can be run against a
	// live server (Pyjama mode only).
	Chaos *chaos.Injector
}

// SuperviseConfig parameterizes the server's failure model.
type SuperviseConfig struct {
	// Restart, when set, builds the worker target as a supervised pool
	// (executor.NewSupervisedPool) that respawns crashed workers within the
	// restart budget it describes; nil leaves the target only watched
	// (stalls are reported, nothing is repaired).
	Restart *executor.RestartConfig
	// WatchdogInterval / StallAfter tune the heartbeat (defaults: 100ms
	// checks, stall after 10 intervals).
	WatchdogInterval time.Duration
	StallAfter       time.Duration
}

// QoSConfig parameterizes the server's admission control. A request takes
// one of Workers slots before it invokes the worker target, so "waiting for
// a slot" is exactly "the worker target's queue would grow"; overflow is
// shed with HTTP 503 instead of queueing unboundedly.
type QoSConfig struct {
	// QueueLimit bounds requests waiting for a worker slot (<0 =
	// unbounded wait queue, 0 = no waiting; sheds are 503s).
	QueueLimit int
	// RequestTimeout is the per-request deadline propagated into the
	// target block via InvokeCtx (0 = none). Requests that exceed it
	// respond 503, and still-queued work is cancelled. It also bounds the
	// wait for a slot.
	RequestTimeout time.Duration
}

func (c *Config) fill() {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.KernelBytes < 1 {
		c.KernelBytes = 64 * 1024
	}
}

// Server is a runnable encryption service.
type Server struct {
	cfg Config

	ln  net.Listener
	rt  *core.Runtime // Pyjama mode
	sem chan struct{} // Workers slots: Jetty mode, and Pyjama mode with QoS
	reg gid.Registry

	waiting atomic.Int64 // QoS requests waiting for a slot

	// ctx is every request's parent. Stop cancels it, which closes every
	// connection and releases a request waiting for a Jetty slot or a QoS
	// admission.
	ctx    context.Context
	cancel context.CancelFunc
	conns  sync.WaitGroup // the accept loop and one per connection goroutine

	// idle is the payload free list, of Workers: the bound on concurrent
	// computations in every organisation. Not a sync.Pool, which the collector
	// empties (DESIGN §4 item 3).
	idle chan *payload

	pool *executor.WorkerPool // Pyjama worker pool when not runtime-owned
	dog  *supervise.Watchdog  // nil without Supervise

	spans    *metrics.SpanSink // /metrics aggregation, installed globally by Start
	prevSink trace.Sink        // global sink before Start, chained and restored

	served atomic.Int64
	errors atomic.Int64
	shed   atomic.Int64
}

// New builds a server from cfg. Call Start to begin serving.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{cfg: cfg, idle: make(chan *payload, cfg.Workers)}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	switch cfg.Mode {
	case Pyjama:
		s.rt = core.NewRuntime(&s.reg)
		if cfg.QoS != nil {
			s.sem = make(chan struct{}, cfg.Workers)
		}
	default:
		s.sem = make(chan struct{}, cfg.Workers)
	}
	return s
}

// Start binds to a loopback port and begins serving. It returns the base
// URL ("http://127.0.0.1:PORT").
func (s *Server) Start() (string, error) {
	if s.rt != nil {
		if err := s.setupWorkerTarget(); err != nil {
			return "", err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.ln = ln
	// Install the span-to-metrics aggregator as the process-global trace
	// sink, chained to whatever was there before (a bench's Buffer keeps
	// seeing every event). Stop restores the previous sink.
	s.prevSink = trace.ActiveSink()
	s.spans = metrics.NewSpanSink(s.prevSink)
	trace.SetGlobal(s.spans)
	s.conns.Add(1)
	go s.accept()
	return "http://" + ln.Addr().String(), nil
}

// accept serves each connection on a goroutine of its own until Stop closes
// the listener.
func (s *Server) accept() {
	defer s.conns.Done()
	for {
		c, err := s.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			time.Sleep(10 * time.Millisecond) // out of descriptors, say: let some close
			continue
		}
		s.conns.Add(1)
		go s.serve(c)
	}
}

// serve answers a connection's requests in order until the client closes
// it, a request asks to close it, a head is refused or Stop closes it.
func (s *Server) serve(c net.Conn) {
	defer s.conns.Done()
	defer c.Close()
	defer context.AfterFunc(s.ctx, func() { _ = c.Close() })()
	br := bufio.NewReaderSize(c, maxHead)
	w := &replyWriter{bw: bufio.NewWriterSize(c, 4<<10)}
	for {
		buf, err := peekHead(br)
		h, status := parseHead(buf)
		if errors.Is(err, errHeadTooLarge) {
			status = http.StatusRequestHeaderFieldsTooLarge
		} else if err != nil {
			return
		}
		w.close = h.close || status != 0
		switch {
		case status != 0:
			w.error(status, http.StatusText(status))
		case string(h.path) == "/encrypt":
			s.handleEncrypt(w, h.size)
		case string(h.path) == "/healthz":
			s.handleHealthz(w)
		case string(h.path) == "/metrics":
			s.handleMetrics(w)
		default:
			w.error(http.StatusNotFound, "404 page not found")
		}
		_, _ = br.Discard(len(buf) + 2)
		if !w.close && br.Buffered() > 0 {
			continue // a pipelined request: its reply shares the flush
		}
		if err := w.bw.Flush(); err != nil || w.close {
			if err == nil && status != 0 {
				lingerClose(c)
			}
			return
		}
	}
}

// lingerClose half-closes a connection whose request was refused and
// discards what the client still sends, for a second at most, so the client
// reads the refusal rather than a reset.
func lingerClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok && tc.CloseWrite() == nil {
		_ = c.SetReadDeadline(time.Now().Add(time.Second))
		_, _ = io.Copy(io.Discard, io.LimitReader(c, 1<<20))
	}
}

// replyWriter writes a connection's replies.
type replyWriter struct {
	bw    *bufio.Writer
	close bool         // the reply says the connection closes after it
	body  bytes.Buffer // the body of a /healthz or /metrics reply
}

// error writes a plain-text reply as http.Error does.
func (w *replyWriter) error(status int, msg string) {
	writeReplyHead(w.bw, status, "text/plain; charset=utf-8", len(msg)+1, w.close)
	_, _ = w.bw.WriteString(msg)
	_ = w.bw.WriteByte('\n')
}

// send writes w.body as the reply.
func (w *replyWriter) send(status int, contentType string) {
	writeReplyHead(w.bw, status, contentType, w.body.Len(), w.close)
	_, _ = w.bw.Write(w.body.Bytes())
	w.body.Reset()
}

// setupWorkerTarget builds the Pyjama worker target. Plain configs keep the
// seed path (a runtime-owned pool); with Supervise the pool is watched and —
// when Restart is set — supervised, so crashed workers are respawned instead
// of silently draining the pool; with Chaos it is wrapped in the
// fault-injection middleware, beneath which the pool respawns.
func (s *Server) setupWorkerTarget() error {
	sv := s.cfg.Supervise
	if sv == nil && s.cfg.Chaos == nil {
		_, err := s.rt.CreateWorker("worker", s.cfg.Workers)
		return err
	}
	if sv != nil && sv.Restart != nil {
		s.pool = executor.NewSupervisedPool("worker", s.cfg.Workers, &s.reg, *sv.Restart)
	} else {
		s.pool = executor.NewWorkerPool("worker", s.cfg.Workers, &s.reg)
	}
	var target executor.Executor = s.pool
	if s.cfg.Chaos != nil {
		target = s.cfg.Chaos.Wrap(target)
	}
	// Registered, not runtime-owned: Stop shuts the pool down.
	if err := s.rt.RegisterTarget("worker", target); err != nil {
		s.pool.Shutdown()
		return err
	}
	if sv != nil {
		s.dog = supervise.NewWatchdog(sv.WatchdogInterval)
		s.dog.Watch("worker", target, sv.StallAfter)
		s.dog.Start()
	}
	return nil
}

// handleHealthz reports the worker target's health when it is watched: its
// restart record graded (when the pool is supervised) and its watchdog
// liveness. The overall status is the worst of the two — "ok" and
// "degraded" answer 200, "down" answers 503 so orchestrators stop routing
// here.
func (s *Server) handleHealthz(w *replyWriter) {
	type targetHealth struct {
		Supervision *supervise.TargetHealth `json:"supervision,omitempty"`
		Liveness    *supervise.Report       `json:"liveness,omitempty"`
	}
	var resp struct {
		Status  string                   `json:"status"`
		Targets map[string]*targetHealth `json:"targets,omitempty"`
	}
	worst := supervise.Healthy
	if s.dog != nil { // set with the pool, in Pyjama mode under Supervise
		th := &targetHealth{}
		resp.Targets = map[string]*targetHealth{"worker": th}
		if s.cfg.Supervise.Restart != nil {
			h := supervise.Grade("worker", s.pool.Restarts())
			th.Supervision, worst = &h, h.StatusValue()
		}
		rep := s.dog.Health()["worker"]
		th.Liveness = &rep
		// A stalled target degrades the service; one answering
		// executor.ErrTargetDown takes it down.
		switch rep.LivenessValue() {
		case supervise.LiveStalled:
			worst = max(worst, supervise.Degraded)
		case supervise.LiveDown:
			worst = supervise.Down
		}
	}
	resp.Status = worst.String()
	status := http.StatusOK
	if worst == supervise.Down {
		status = http.StatusServiceUnavailable
	}
	_ = json.NewEncoder(&w.body).Encode(resp) // of a struct it can always encode
	w.send(status, "application/json")
}

// handleMetrics serves the per-target span metrics in the Prometheus text
// exposition format (histograms of invoke/run latency and queue sojourn,
// scheduling and incident counters).
func (s *Server) handleMetrics(w *replyWriter) {
	if s.spans != nil {
		_ = s.spans.WritePrometheus(&w.body) // a bytes.Buffer does not fail
	}
	w.send(http.StatusOK, "text/plain; version=0.0.4; charset=utf-8")
}

// maxRequestBytes bounds ?size=: a payload takes three times it. It sits
// above Java Grande's largest Crypt size (C, 50 MB).
const maxRequestBytes = 64 << 20

// keptPayloadBytes is the largest payload compute keeps (http_encrypt's is 256
// KiB); a larger one is dropped, not pinned per worker for the server's life.
const keptPayloadBytes = 1 << 20

// payload is one computation's working set, kept on the idle list between
// requests: the kernel, the request's size and checksum, the block that runs
// the kernel on them — bound once, when the payload is made, so a request
// builds no closure and no captured checksum — and the scratch its reply is
// formatted in (a stack array handed to bufio.Writer.Write would move to the
// heap).
type payload struct {
	k        kernels.Crypt
	omp      int // Config.OMPThreads
	size     int
	sum      int64
	block    func()
	ctxBlock func(context.Context)
	reply    [21]byte // "%d\n" of any int64
}

// takePayload returns an idle payload (a new one when none is idle) set up
// for a request of size bytes.
func (s *Server) takePayload(size int) *payload {
	var p *payload
	select {
	case p = <-s.idle:
	default:
		p = &payload{omp: s.cfg.OMPThreads}
		p.block = p.compute
		p.ctxBlock = func(context.Context) { p.compute() }
	}
	p.size = size
	return p
}

// compute runs the encryption kernel on the payload and records the
// ciphertext checksum.
func (p *payload) compute() {
	p.k.Reset(p.size)
	if p.omp > 1 {
		p.k.RunPar(p.omp)
	} else {
		p.k.RunSeq()
	}
	p.sum = p.k.Checksum()
}

// reply writes a successful response, the checksum and a newline, and gives
// the payload back to the idle list before the connection flushes the reply,
// so the payload is idle by the time the client has its answer. Only a
// success path gets here: its join
// has returned, so the block is over and will not run again (a block cancelled
// in its queue never runs, a started one is waited for). A payload that
// failed, panicked or was cancelled is left to the collector, and so is one
// over keptPayloadBytes.
func (s *Server) reply(w *replyWriter, p *payload) {
	s.served.Add(1)
	body := append(strconv.AppendInt(p.reply[:0], p.sum, 10), '\n')
	writeReplyHead(w.bw, http.StatusOK, "text/plain; charset=utf-8", len(body), w.close)
	_, _ = w.bw.Write(body) // a failed write is a client gone, seen at the flush
	if p.size <= keptPayloadBytes {
		select {
		case s.idle <- p:
		default: // full: more computations ran at once than the list holds
		}
	}
}

// handleEncrypt serves /encrypt?size=size (head.size: 0 for the configured
// size, -1 for a bad one).
func (s *Server) handleEncrypt(w *replyWriter, size int) {
	// The worker invocation made while handling parents to this span, so a
	// Go execution trace shows request → invoke → run chains end to end.
	defer trace.Open(trace.ActiveSink(), "request", "http").Close()
	switch {
	case size < 0:
		s.errors.Add(1)
		w.error(http.StatusBadRequest, "bad size")
		return
	case size == 0:
		size = s.cfg.KernelBytes
	}
	switch {
	case s.cfg.Mode != Pyjama: // Jetty: admission into the fixed thread pool
		select {
		case s.sem <- struct{}{}:
		case <-s.ctx.Done():
			return // Stop has closed the connection
		}
		p := s.takePayload(size)
		p.compute()
		s.reply(w, p)
		<-s.sem
	case s.sem != nil:
		s.handleEncryptQoS(w, size)
	default:
		p := s.takePayload(size)
		comp, err := s.rt.Invoke("worker", core.Wait, p.block)
		switch {
		case err != nil:
			s.errors.Add(1)
			w.error(http.StatusInternalServerError, "compute failed")
		case comp.Err() != nil:
			s.failCompute(w, comp.Err())
		default:
			s.reply(w, p)
		}
	}
}

// handleEncryptQoS is the guarded Pyjama request path: admission to a worker
// slot, then a deadline-propagating invocation. It writes the full response
// (success or failure), and takes its payload only once admitted and gives it
// back before the slot, so a payload is out only while it holds a slot. Its
// context is the server's, which Stop cancels: a client that hangs up
// mid-request is seen when the reply is written, so RequestTimeout is the one
// bound on a queued request.
func (s *Server) handleEncryptQoS(w *replyWriter, size int) {
	ctx := s.ctx
	if d := s.cfg.QoS.RequestTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if !s.admit(ctx) {
		// Shed: fail fast instead of queueing.
		s.shed.Add(1)
		w.error(http.StatusServiceUnavailable, "overloaded")
		return
	}
	defer func() { <-s.sem }()

	p := s.takePayload(size)
	comp, err := s.rt.InvokeCtx(ctx, "worker", core.Wait, p.ctxBlock)
	if err != nil {
		s.errors.Add(1)
		w.error(http.StatusInternalServerError, "compute failed")
		return
	}
	switch cerr := comp.Err(); {
	case core.IsDeadline(cerr), ctx.Err() != nil:
		// The block was cancelled in-queue, or finished after the
		// request's deadline: either way the response is too late.
		s.shed.Add(1)
		w.error(http.StatusServiceUnavailable, "deadline exceeded")
		return
	case cerr != nil:
		s.failCompute(w, cerr)
		return
	}
	s.reply(w, p)
}

// admit takes a worker slot for a QoS request: at once if one is free, else
// after waiting, with at most QueueLimit requests waiting (<0 unbounded), until
// a slot frees or ctx ends. A refusal emits trace.OpShed on "worker", unless
// Stop caused it.
func (s *Server) admit(ctx context.Context) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	limit := int64(s.cfg.QoS.QueueLimit)
	if n := s.waiting.Add(1); limit < 0 || n <= limit {
		select {
		case s.sem <- struct{}{}:
			s.waiting.Add(-1)
			return true
		case <-ctx.Done():
		}
	}
	s.waiting.Add(-1)
	if s.ctx.Err() == nil {
		trace.Emit(trace.OpShed, "worker")
	}
	return false
}

// failCompute writes the failure response for a finished-with-error
// invocation. A down pool's refusal is a capacity answer (503, counted as
// a shed) — the target is down, retry elsewhere; everything else (panics,
// crashed workers) is a 500.
func (s *Server) failCompute(w *replyWriter, cerr error) {
	if errors.Is(cerr, executor.ErrTargetDown) {
		s.shed.Add(1)
		w.error(http.StatusServiceUnavailable, "worker target unavailable")
		return
	}
	s.errors.Add(1)
	w.error(http.StatusInternalServerError, "compute failed")
}

// Served returns the number of successful responses.
func (s *Server) Served() int64 { return s.served.Load() }

// SchedStats returns per-target scheduler counters (submitted, completed,
// helped, queue peak, …) for every target that exposes them — the same
// counters the bench suite reports, so server runs and microbenchmarks can
// be compared on one axis. Nil in Jetty mode (no virtual-target runtime).
func (s *Server) SchedStats() map[string]executor.Stats {
	if s.rt == nil {
		return nil
	}
	return s.rt.PoolStats()
}

// Errors returns the number of failed requests.
func (s *Server) Errors() int64 { return s.errors.Load() }

// Shed returns the number of 503 responses: admission sheds and deadline
// expiries, plus supervision's fail-fast answers (see failCompute).
func (s *Server) Shed() int64 { return s.shed.Load() }

// Restarts returns the worker pool's respawn record (the zero value unless
// Supervise.Restart is configured).
func (s *Server) Restarts() executor.Restarts {
	if s.pool == nil {
		return executor.Restarts{}
	}
	return s.pool.Restarts()
}

// Watchdog returns the stall watchdog (nil unless Supervise is configured).
func (s *Server) Watchdog() *supervise.Watchdog { return s.dog }

// Spans returns the server's span-metrics aggregator (nil before Start).
func (s *Server) Spans() *metrics.SpanSink { return s.spans }

// Stop shuts the server down and releases its worker pool. It closes every
// connection before it shuts the pool down, and waits for the connection
// goroutines only after: a request parked in an invocation on a pool with no
// live worker returns only once the shutdown fails it. A connection accepted
// after the cancel is closed as it is registered.
func (s *Server) Stop() {
	if s.dog != nil {
		s.dog.Stop()
	}
	if s.spans != nil && trace.ActiveSink() == trace.Sink(s.spans) {
		// Restore the pre-Start global sink — but only if ours is still
		// installed; a later server's chained sink stays untouched.
		trace.SetGlobal(s.prevSink)
	}
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.cancel() // closes every connection
	if s.rt != nil {
		s.rt.Shutdown()
	}
	if s.pool != nil {
		// Registered targets are not runtime-owned; their lifecycle is ours.
		s.pool.Shutdown()
	}
	s.conns.Wait()
}
