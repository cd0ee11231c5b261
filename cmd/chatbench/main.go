// chatbench is the reactor's fan-out proof: a websocket-style chat drill
// where every connection is a reactor registration instead of a goroutine.
// One netloop server on the reactor transport hosts R rooms; C client
// connections — themselves driven by a second reactor, so the whole bench
// is two poll goroutines plus the dispatch loop — join rooms and exchange
// broadcast rounds. Each round, one speaker per room sends a stamped
// message and the server fans it out to every room member.
//
// The drill is designed for 100k+ connections; the actual count is clamped
// to what RLIMIT_NOFILE allows for an in-process client+server pair (two
// descriptors per connection), and the report records the honest numbers.
//
// Measured, printed to stdout and, with -out FILE, also written there:
//
//   - end-to-end broadcast latency (client stamp → client receive), p50/p99;
//   - dispatch-queue delay on the server loop (readiness → handler start);
//   - delivered messages/second across the fan-out;
//   - heap allocations per delivered message (the hot path's footprint);
//   - goroutine count at steady state — the number that proves the
//     architecture: it stays flat as connections grow.
//
// The drill is a burst: every round's messages are stamped and written
// before the first is delivered, so the end-to-end p99 is close to the
// length of the run, not a per-message service time. For gated numbers use
// the chat_echo and chat_fanout workloads of benchmark/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/eventloop"
	"repro/internal/gid"
	"repro/internal/metrics"
	"repro/internal/netloop"
	"repro/internal/reactor"
)

// Report is the JSON shape printed and written to -out.
type Report struct {
	Timestamp      string        `json:"timestamp"`
	RequestedConns int           `json:"requested_conns"`
	Conns          int           `json:"conns"` // after the rlimit clamp
	Rooms          int           `json:"rooms"`
	Rounds         int           `json:"rounds"`
	PayloadBytes   int           `json:"payload_bytes"`
	Delivered      int64         `json:"delivered_msgs"`
	Seconds        float64       `json:"seconds"`
	MsgsPerSec     float64       `json:"msgs_per_sec"`
	E2EP50Micros   int64         `json:"e2e_p50_us"`
	E2EP99Micros   int64         `json:"e2e_p99_us"`
	QueueP50Micros int64         `json:"queue_p50_us"`
	QueueP99Micros int64         `json:"queue_p99_us"`
	AllocsPerMsg   float64       `json:"allocs_per_msg"`
	Goroutines     int           `json:"goroutines"`
	ServerStats    reactor.Stats `json:"server_reactor"`
	ClientStats    reactor.Stats `json:"client_reactor"`
}

// clientState is per-connection line reassembly, confined to the client
// reactor's poll goroutine.
type clientState struct {
	partial []byte
}

func main() {
	var (
		conns   = flag.Int("conns", 100000, "client connections (clamped to RLIMIT_NOFILE)")
		rooms   = flag.Int("rooms", 256, "chat rooms (fan-out groups)")
		rounds  = flag.Int("rounds", 5, "broadcast rounds per room")
		payload = flag.Int("payload", 64, "padding bytes per message")
		out     = flag.String("out", "-", "also write the report to this path ('-' for stdout only)")
	)
	flag.Parse()
	if !reactor.Supported {
		fmt.Fprintln(os.Stderr, "chatbench: no reactor poller on this platform")
		os.Exit(1)
	}
	rep, err := run(*conns, *rooms, *rounds, *payload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chatbench:", err)
		os.Exit(1)
	}
	buf, _ := json.MarshalIndent(rep, "", "  ")
	buf = append(buf, '\n')
	os.Stdout.Write(buf)
	if *out != "-" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "chatbench:", err)
			os.Exit(1)
		}
	}
}

func run(requested, nRooms, rounds, payload int) (*Report, error) {
	conns := clampConns(requested)
	if conns < requested {
		fmt.Fprintf(os.Stderr,
			"chatbench: RLIMIT_NOFILE clamps the drill to %d connections (requested %d; the design target needs a raised fd limit)\n",
			conns, requested)
	}
	if nRooms > conns {
		nRooms = conns
	}
	reg := &gid.Registry{}

	// --- server: rooms live on the dispatch loop, no locks -----------------
	srv := netloop.New("chat", reg)
	if err := srv.EnableReactor(); err != nil {
		return nil, fmt.Errorf("EnableReactor: %w", err)
	}
	defer srv.Stop()
	// Production posture, in the measured path: every connection carries an
	// idle deadline and the accept path runs the admission gate. Neither
	// trips during a healthy run — the bench exists to price the checks.
	srv.SetIdleDeadline(30 * time.Second)
	srv.SetMaxConns(conns*2+64, "BUSY")
	roomTable := make(map[string][]*netloop.Client, nRooms)
	srv.HandleFunc(func(c *netloop.Client, line string) {
		switch {
		case strings.HasPrefix(line, "join "):
			room := line[len("join "):]
			roomTable[room] = append(roomTable[room], c)
			c.Send("joined " + room)
		case strings.HasPrefix(line, "say "):
			room, _, _ := strings.Cut(line[len("say "):], " ")
			for _, m := range roomTable[room] {
				m.Send(line) // fan-out: the measured hot path
			}
		}
	})

	// Dispatch-queue delay on the server loop, sampled by the observer.
	queueDelay := metrics.NewHistogram()
	srv.Loop().SetObserver(func(d eventloop.DispatchInfo) {
		if d.Label == "msg" {
			queueDelay.Observe(d.QueueDelay())
		}
	})

	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	// --- clients: one reactor for all of them ------------------------------
	cli, err := reactor.New("chatbench/clients", reg)
	if err != nil {
		return nil, err
	}
	defer cli.Stop()

	var joined, delivered atomic.Int64
	e2e := metrics.NewHistogram()
	onLine := func(line []byte) {
		switch {
		case strings.HasPrefix(string(line), "joined "):
			joined.Add(1)
		case strings.HasPrefix(string(line), "say "):
			n := delivered.Add(1)
			// Sample 1-in-8 to keep parse cost out of the hot path's face.
			if n%8 == 0 {
				f := strings.Fields(string(line))
				if len(f) >= 3 {
					if stamp, err := strconv.ParseInt(f[2], 10, 64); err == nil {
						e2e.Observe(time.Duration(time.Now().UnixNano() - stamp))
					}
				}
			}
		}
	}
	handlers := reactor.HandlerFuncs{
		OnReadable: func(c *reactor.Conn, data []byte) {
			st := c.Context().(*clientState)
			buf := data
			if len(st.partial) > 0 {
				st.partial = append(st.partial, data...)
				buf = st.partial
			}
			for {
				i := strings.IndexByte(string(buf), '\n')
				if i < 0 {
					break
				}
				onLine(buf[:i])
				buf = buf[i+1:]
			}
			st.partial = append(st.partial[:0], buf...)
		},
	}

	clients := make([]*reactor.Conn, 0, conns)
	for i := 0; i < conns; i++ {
		c, err := cli.Dial(addr, handlers)
		if err != nil {
			return nil, fmt.Errorf("dial %d/%d: %w", i, conns, err)
		}
		c.SetContext(&clientState{})
		clients = append(clients, c)
	}

	// --- join phase --------------------------------------------------------
	members := make([][]*reactor.Conn, nRooms)
	for i, c := range clients {
		r := i % nRooms
		members[r] = append(members[r], c)
		if err := c.Write([]byte("join room" + strconv.Itoa(r) + "\n")); err != nil {
			return nil, err
		}
	}
	if err := waitFor("joins acknowledged", func() bool {
		return joined.Load() == int64(conns)
	}); err != nil {
		return nil, err
	}

	// Expected deliveries: every member of a room receives each of the
	// room's per-round broadcasts.
	var expected int64
	for _, m := range members {
		expected += int64(len(m) * rounds)
	}

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steadyGoroutines := runtime.NumGoroutine()

	// --- broadcast rounds --------------------------------------------------
	pad := strings.Repeat("x", payload)
	start := time.Now()
	for round := 0; round < rounds; round++ {
		for r, m := range members {
			if len(m) == 0 {
				continue
			}
			speaker := m[round%len(m)]
			line := fmt.Sprintf("say room%d %d %s\n", r, time.Now().UnixNano(), pad)
			if err := speaker.Write([]byte(line)); err != nil {
				return nil, fmt.Errorf("round %d speaker: %w", round, err)
			}
		}
	}
	if err := waitFor("broadcasts delivered", func() bool {
		return delivered.Load() == expected
	}); err != nil {
		return nil, fmt.Errorf("%w (delivered %d/%d)", err, delivered.Load(), expected)
	}
	elapsed := time.Since(start)

	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	rep := &Report{
		Timestamp:      time.Now().UTC().Format(time.RFC3339),
		RequestedConns: requested,
		Conns:          conns,
		Rooms:          nRooms,
		Rounds:         rounds,
		PayloadBytes:   payload,
		Delivered:      delivered.Load(),
		Seconds:        elapsed.Seconds(),
		MsgsPerSec:     float64(delivered.Load()) / elapsed.Seconds(),
		E2EP50Micros:   e2e.Quantile(0.5).Microseconds(),
		E2EP99Micros:   e2e.Quantile(0.99).Microseconds(),
		QueueP50Micros: queueDelay.Quantile(0.5).Microseconds(),
		QueueP99Micros: queueDelay.Quantile(0.99).Microseconds(),
		AllocsPerMsg:   float64(m1.Mallocs-m0.Mallocs) / float64(delivered.Load()),
		Goroutines:     steadyGoroutines,
		ServerStats:    srv.Reactor().Stats(),
		ClientStats:    cli.Stats(),
	}
	return rep, nil
}

// waitFor polls cond with a generous deadline; the bench fails loudly
// instead of hanging when a message goes missing.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(2 * time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
