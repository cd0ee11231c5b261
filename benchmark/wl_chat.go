package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/eventloop"
	"repro/internal/gid"
	"repro/internal/netloop"
	"repro/internal/reactor"
)

const (
	chatLineLen     = 64 // bytes per line, newline included
	chatRooms       = 8  // chat_fanout: rooms, each a closed loop of one outstanding line
	chatMembers     = 16 // chat_fanout: members of a room
	chatEchoConns   = 8  // chat_echo: connections, each a closed loop of one outstanding line
	chatFanWarmup   = 200
	chatEchoWarmup  = 500
	chatJoinTimeout = 10 * time.Second
)

var errSkipped = errors.New("workload skipped on this platform")

// chatWorkload is chat_fanout and chat_echo: a netloop server on the reactor
// transport with one handler table, and client sockets that are all driven
// by one client reactor, so the only runnable generator thread is its poll
// goroutine. A room is a closed loop: its next line goes out when every
// member has received the previous one. chat_echo's rooms have one member
// each and use the echo verb, which the server answers to the sender only.
//
// Eight loops, not nproc: with two the three threads involved (client poll,
// server poll, dispatch loop) sleep between hops, every hop is a cross-CPU
// wake-up, and on a 2-vCPU virtual machine the cost of those moved
// throughput by a quarter to a half from one run to the next. With eight
// there is always a line in flight somewhere, the threads stay busy, and the
// run-to-run spread was 6 % (echo) and 13 % (fan-out) instead.
type chatWorkload struct {
	fanout bool

	srv       *netloop.Server
	cli       *reactor.Reactor
	roomTable map[string][]*netloop.Client // server loop only

	// Client poll goroutine only.
	rooms   []*chatRoom
	nextSeq uint64
	rec     *recorder

	tr               atomic.Pointer[tracer]
	curOp            uint64 // server loop only: the traced line being handled
	curTraced        bool
	stopping         atomic.Bool
	joined, sent     atomic.Int64
	stray, sendErrs  atomic.Int64
	closedUnexpected atomic.Int64
	membersConnected int
}

type chatRoom struct {
	w       *chatWorkload
	prefix  string // "say r0 " or "echo c0 "
	members []*chatMember
	rng     *rand.Rand

	seq       uint64
	line      []byte // the outstanding line, newline included
	sentAt    int64
	got       int
	traced    bool
	deadline  int64 // send no new line after this nanotime ...
	remaining int   // ... or, when deadline is 0, after this many more
	done      chan struct{}
}

type chatMember struct {
	room    *chatRoom
	conn    *reactor.Conn
	partial []byte
	lastSeq uint64
}

func newChatWorkload(fanout bool) *chatWorkload { return &chatWorkload{fanout: fanout} }

func (w *chatWorkload) lanes() int         { return 1 }
func (w *chatWorkload) traceEvery() uint64 { return 64 }

func (w *chatWorkload) setTracer(t *tracer) {
	w.tr.Store(t)
	if t == nil {
		w.srv.Loop().SetObserver(nil)
		return
	}
	// The loop's observer reports how long each dispatch waited in the
	// queue; the handler, which runs just before it on the same goroutine,
	// says which line that was.
	w.srv.Loop().SetObserver(func(d eventloop.DispatchInfo) {
		if d.Label == "msg" && w.curTraced {
			t.add(w.curOp, spLoopQueue, spOp, int64(d.Enqueued.Sub(epoch)), int64(d.Start.Sub(epoch)))
			w.curTraced = false
		}
	})
}

func (w *chatWorkload) setup(seed int64) error {
	if !reactor.Supported {
		return errSkipped
	}
	reg := &gid.Registry{}
	w.srv = netloop.New("chat", reg)
	if err := w.srv.EnableReactor(); err != nil {
		return err
	}
	w.roomTable = make(map[string][]*netloop.Client)
	w.srv.HandleFunc(w.handle)
	addr, err := w.srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	if w.cli, err = reactor.New("bench/clients", reg); err != nil {
		return err
	}

	rooms, members, verb, name := chatEchoConns, 1, "echo", "c"
	if w.fanout {
		rooms, members, verb, name = chatRooms, chatMembers, "say", "r"
	}
	handlers := reactor.HandlerFuncs{OnReadable: w.readable, OnClose: w.closed}
	for i := 0; i < rooms; i++ {
		r := &chatRoom{
			w:      w,
			prefix: verb + " " + name + strconv.Itoa(i) + " ",
			rng:    rand.New(rand.NewSource(seed*1000 + int64(i))),
			line:   make([]byte, 0, chatLineLen),
			done:   make(chan struct{}, 1),
		}
		for j := 0; j < members; j++ {
			c, err := w.cli.Dial(addr, handlers)
			if err != nil {
				return fmt.Errorf("dial: %w", err)
			}
			m := &chatMember{room: r, conn: c}
			c.SetContext(m)
			r.members = append(r.members, m)
			w.membersConnected++
			if w.fanout {
				if err := c.Write([]byte("join " + name + strconv.Itoa(i) + "\n")); err != nil {
					return fmt.Errorf("join: %w", err)
				}
			}
		}
		w.rooms = append(w.rooms, r)
	}
	if w.fanout {
		for deadline := time.Now().Add(chatJoinTimeout); w.joined.Load() < int64(w.membersConnected); {
			if time.Now().After(deadline) {
				return fmt.Errorf("%d of %d joins acknowledged", w.joined.Load(), w.membersConnected)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// handle is the server's handler table; it runs on the dispatch loop.
func (w *chatWorkload) handle(c *netloop.Client, line string) {
	tr := w.tr.Load()
	var op uint64
	var t0 int64
	traced := false
	if tr != nil {
		op = lineSeq(line)
		if traced = tr.sampled(op); traced {
			t0 = nanotime()
		}
	}
	switch {
	case strings.HasPrefix(line, "say "):
		room, _, _ := strings.Cut(line[len("say "):], " ")
		for _, m := range w.roomTable[room] {
			w.send(m, line, tr, op, traced)
		}
	case strings.HasPrefix(line, "echo "):
		w.send(c, line, tr, op, traced)
	case strings.HasPrefix(line, "join "):
		room := line[len("join "):]
		w.roomTable[room] = append(w.roomTable[room], c)
		w.send(c, "joined "+room, nil, 0, false)
	default:
		w.stray.Add(1)
	}
	if traced {
		tr.add(op, spHandler, spOp, t0, nanotime())
		w.curOp, w.curTraced = op, true
	}
}

func (w *chatWorkload) send(c *netloop.Client, line string, tr *tracer, op uint64, traced bool) {
	var t0 int64
	if traced {
		t0 = nanotime()
	}
	if err := c.Send(line); err != nil {
		w.sendErrs.Add(1)
	}
	if traced {
		tr.add(op, spSendCall, spHandler, t0, nanotime())
	}
}

// lineSeq returns the sequence number, the third field of a say or echo line.
func lineSeq(line string) uint64 {
	_, rest, _ := strings.Cut(line, " ")
	_, rest, _ = strings.Cut(rest, " ")
	num, _, _ := strings.Cut(rest, " ")
	n, _ := strconv.ParseUint(num, 10, 64)
	return n
}

// readable reassembles lines on the client poll goroutine.
func (w *chatWorkload) readable(c *reactor.Conn, data []byte) {
	m := c.Context().(*chatMember)
	buf := data
	if len(m.partial) > 0 {
		m.partial = append(m.partial, data...)
		buf = m.partial
	}
	for {
		i := bytes.IndexByte(buf, '\n')
		if i < 0 {
			break
		}
		m.delivered(buf[:i])
		buf = buf[i+1:]
	}
	m.partial = append(m.partial[:0], buf...)
}

func (w *chatWorkload) closed(*reactor.Conn, error) {
	if !w.stopping.Load() {
		w.closedUnexpected.Add(1)
	}
}

// delivered is the per-operation oracle: the line must be the room's
// outstanding one, byte for byte, and this member must not have had it yet.
// A line meant for another room or connection fails the first test, a
// second copy or an old line the second.
func (m *chatMember) delivered(line []byte) {
	r := m.room
	w := r.w
	if bytes.HasPrefix(line, []byte("joined ")) {
		w.joined.Add(1)
		return
	}
	if r.got == len(r.members) || !bytes.Equal(line, r.line[:len(r.line)-1]) || m.lastSeq >= r.seq {
		w.stray.Add(1)
		w.rec.fail()
		return
	}
	m.lastSeq = r.seq
	now := nanotime()
	r.got++
	w.rec.ok(0, now-r.sentAt)
	if r.traced {
		tr := w.tr.Load()
		if r.got == 1 {
			tr.add(r.seq, spFirstDelivery, spOp, r.sentAt, now)
		}
		if r.got == len(r.members) {
			tr.add(r.seq, spLastDelivery, spOp, r.sentAt, now)
			tr.add(r.seq, spOp, spNone, r.sentAt, now)
		}
	}
	if r.got == len(r.members) {
		r.next(now)
	}
}

// next sends the room's next line, or ends the room's loop.
func (r *chatRoom) next(now int64) {
	w := r.w
	if (r.deadline != 0 && now >= r.deadline) || (r.deadline == 0 && r.remaining == 0) {
		r.done <- struct{}{}
		return
	}
	r.remaining--
	w.nextSeq++
	r.seq = w.nextSeq
	// "say r0 0000000042 <seeded padding>\n", chatLineLen bytes in all.
	r.line = append(r.line[:0], r.prefix...)
	for d := uint64(1e9); d > 0; d /= 10 {
		r.line = append(r.line, byte('0'+r.seq/d%10))
	}
	r.line = append(r.line, ' ')
	for len(r.line) < chatLineLen-1 {
		r.line = append(r.line, byte('a'+r.rng.Intn(26)))
	}
	r.line = append(r.line, '\n')
	r.got = 0
	tr := w.tr.Load()
	r.traced = tr.sampled(r.seq)
	r.sentAt = nanotime()
	err := r.members[r.seq%uint64(len(r.members))].conn.Write(r.line)
	w.sent.Add(1)
	if r.traced {
		tr.add(r.seq, spClientWrite, spOp, r.sentAt, nanotime())
	}
	if err != nil {
		w.rec.fail()
		r.done <- struct{}{}
	}
}

// drive starts every room's loop on the client poll goroutine and waits for
// all of them to end: at the deadline, or after count lines when it is 0.
func (w *chatWorkload) drive(rec *recorder, deadline int64, count int) {
	err := w.cli.Post(func() {
		w.rec = rec
		for _, r := range w.rooms {
			r.deadline, r.remaining = deadline, count
			r.next(nanotime())
		}
	})
	if err != nil {
		rec.fail()
		return
	}
	for _, r := range w.rooms {
		<-r.done
	}
}

func (w *chatWorkload) warmup(rec *recorder, scale float64) {
	n := chatEchoWarmup * scale
	if w.fanout {
		n = chatFanWarmup * scale
	}
	w.drive(rec, 0, int(n)+1)
}

func (w *chatWorkload) run(d time.Duration, rec *recorder) {
	w.drive(rec, nanotime()+int64(d), 0)
}

func (w *chatWorkload) probe(dispatched func()) { w.srv.Loop().Post(dispatched) }

func (w *chatWorkload) counters() layerCounters {
	st := w.srv.Reactor().Stats()
	return layerCounters{
		loopQueuePeak: w.srv.Loop().QueuePeak(),
		readEvents:    st.ReadEvents,
		writeEvents:   st.WriteEvents,
		wakeups:       st.Wakeups,
		partialWrites: st.PartialWrites,
		bytesWritten:  st.BytesWritten,
		dropped:       w.srv.Dropped(),
	}
}

func (w *chatWorkload) teardown() error {
	w.stopping.Store(true)
	messages := w.srv.Messages()
	w.cli.Stop()
	w.srv.Stop()
	joins := int64(0)
	if w.fanout {
		joins = int64(w.membersConnected)
	}
	switch {
	case w.stray.Load() != 0:
		return fmt.Errorf("%d lines reached a connection that did not expect them", w.stray.Load())
	case w.sendErrs.Load() != 0:
		return fmt.Errorf("%d Send calls failed", w.sendErrs.Load())
	case w.closedUnexpected.Load() != 0:
		return fmt.Errorf("%d connections closed during the run", w.closedUnexpected.Load())
	case w.srv.Dropped() != 0 || w.srv.Shed() != 0:
		return fmt.Errorf("server dropped %d and shed %d messages", w.srv.Dropped(), w.srv.Shed())
	case messages != w.sent.Load()+joins:
		return fmt.Errorf("server received %d messages, clients sent %d", messages, w.sent.Load()+joins)
	}
	return nil
}
