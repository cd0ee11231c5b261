package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/gui"
	"repro/internal/httpserver"
	"repro/internal/kernels"
	"repro/internal/netloop"
	"repro/internal/omp"
	"repro/internal/reactor"
)

// The layer probes are tight loops over one layer's public functions. Each
// reports ns/op and, where the layer allocates, allocs/op, as the median of
// probeReps repetitions. They run only in the traced pass.
const probeReps = 3

var probeSink atomic.Uint64

// probeLoop times loop(n), which performs n operations, probeReps times.
func probeLoop(n int, loop func(n int)) (nsPerOp, allocsPerOp float64) {
	var ns, allocs []float64
	for rep := 0; rep < probeReps; rep++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		loop(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(ns), median(allocs)
}

// spinUntil yields until the counter reaches want: the tasks counted are a
// single atomic add, so sleeping would idle the workers out of the loop.
func spinUntil(c *atomic.Int64, want int64) {
	for c.Load() < want {
		runtime.Gosched()
	}
}

// runProbes measures every layer probe and stores it in res. scale shrinks
// the iteration counts for the smoke test.
func runProbes(res *result, nproc int, scale float64) (notes []string, err error) {
	iters := func(n int) int {
		if n = int(float64(n) * scale); n < 2 {
			n = 2
		}
		return n
	}

	// gid
	ns, _ := probeLoop(iters(4_000_000), func(n int) {
		var x uint64
		for i := 0; i < n; i++ {
			x ^= uint64(gid.Current())
		}
		probeSink.Add(x)
	})
	res.set("gid.current_ns", ns)

	// executor
	q := executor.NewChunkQueue[int]()
	ns, _ = probeLoop(iters(4_000_000), func(n int) {
		var x int
		for i := 0; i < n; i += 64 {
			for j := 0; j < 64; j++ {
				q.Push(j)
			}
			for j := 0; j < 64; j++ {
				v, _ := q.Pop()
				x += v
			}
		}
		probeSink.Add(uint64(x))
	})
	res.set("executor.chunkqueue_ns", ns/2) // a push and a pop per iteration

	reg := &gid.Registry{}
	pool := executor.NewWorkerPool("probe", nproc, reg)
	var ran atomic.Int64
	count := func() { ran.Add(1) }
	ns, allocs := probeLoop(iters(300_000), func(n int) {
		ran.Store(0)
		for i := 0; i < n; i++ {
			pool.Post(count)
		}
		spinUntil(&ran, int64(n))
	})
	res.set("executor.post_ns", ns)
	res.set("executor.post_allocs", allocs)
	ns, allocs = probeLoop(iters(100_000), func(n int) {
		for i := 0; i < n; i++ {
			pool.Post(count).Wait()
		}
	})
	res.set("executor.postwait_ns", ns)
	res.set("executor.postwait_allocs", allocs)
	pool.Shutdown()

	// core: the four scheduling modes of Table I, each issued from a block
	// running on a worker target (so that await has an executor of its own
	// to help) towards a second worker target.
	rt := core.NewRuntime(reg)
	if _, err := rt.CreateWorker("worker", nproc); err != nil {
		return nil, err
	}
	if _, err := rt.CreateWorker("driver", 2); err != nil {
		return nil, err
	}
	noop := func() {}
	const batch = 64
	modes := []struct {
		name string
		n    int
		loop func(n int)
	}{
		{"wait", 100_000, func(n int) {
			for i := 0; i < n; i++ {
				rt.Invoke("worker", core.Wait, noop)
			}
		}},
		{"nowait", 300_000, func(n int) {
			ran.Store(0)
			for i := 0; i < n; i += batch {
				for j := 0; j < batch; j++ {
					rt.Invoke("worker", core.Nowait, count)
				}
				spinUntil(&ran, int64(i+batch))
			}
		}},
		{"nameas", 300_000, func(n int) {
			for i := 0; i < n; i += batch {
				for j := 0; j < batch; j++ {
					rt.InvokeNamed("worker", "probe", noop)
				}
				rt.WaitTag("probe")
			}
		}},
		{"await", 100_000, func(n int) {
			for i := 0; i < n; i++ {
				rt.Invoke("worker", core.Await, noop)
			}
		}},
	}
	cost := make(map[string]float64)
	for _, m := range modes {
		n := (iters(m.n) + batch - 1) / batch * batch
		ns, allocs = probeLoop(n, func(n int) {
			rt.Invoke("driver", core.Wait, func() { m.loop(n) })
		})
		cost[m.name] = ns
		res.set("core.invoke_"+m.name+"_ns", ns)
		res.set("core.invoke_"+m.name+"_allocs", allocs)
	}
	// The logical barrier with work to help with: a serial target whose own
	// queue holds a task each time its thread awaits. (Posted, not invoked:
	// an Invoke of one's own target runs inline.)
	solo, err := rt.CreateWorker("solo", 1)
	if err != nil {
		return nil, err
	}
	nHelp := iters(50_000)
	rt.Invoke("solo", core.Wait, func() {
		for i := 0; i < nHelp; i++ {
			solo.Post(noop)
			rt.Invoke("worker", core.Await, noop)
		}
	})
	res.set("core.await_helps_per_op", float64(solo.Stats().Helped)/float64(nHelp))
	rt.Shutdown()
	order := []string{"nowait", "nameas", "wait", "await"}
	holds := sort.SliceIsSorted(order, func(i, j int) bool { return cost[order[i]] < cost[order[j]] })
	verdict := "holds"
	if !holds {
		verdict = "DOES NOT HOLD"
	}
	notes = append(notes, fmt.Sprintf("Table I cost order nowait < name_as < wait < await %s: %.0f, %.0f, %.0f, %.0f ns",
		verdict, cost["nowait"], cost["nameas"], cost["wait"], cost["await"]))

	// eventloop
	loop := eventloop.New("probe-edt", reg)
	loop.Start()
	ns, allocs = probeLoop(iters(300_000), func(n int) {
		ran.Store(0)
		for i := 0; i < n; i++ {
			loop.Post(count)
		}
		spinUntil(&ran, int64(n))
	})
	res.set("eventloop.post_ns", ns)
	res.set("eventloop.post_allocs", allocs)
	ns, allocs = probeLoop(iters(100_000), func(n int) {
		for i := 0; i < n; i++ {
			loop.InvokeAndWait(noop)
		}
	})
	res.set("eventloop.invokeandwait_ns", ns)
	res.set("eventloop.invokeandwait_allocs", allocs)
	loop.Stop()

	// gui
	tk := gui.NewToolkit(reg)
	label := tk.NewLabel("probe")
	ns, _ = probeLoop(iters(1_000_000), func(n int) {
		tk.InvokeAndWait(func() {
			for i := 0; i < n; i++ {
				label.SetText("x")
			}
		})
	})
	res.set("gui.settext_ns", ns)
	tk.Dispose()

	// omp, kernels
	ns, _ = probeLoop(iters(20_000), func(n int) {
		for i := 0; i < n; i++ {
			omp.Parallel(nproc, func(*omp.Team) {})
		}
	})
	res.set("omp.forkjoin_ns", ns)
	const cryptKiB = 256
	crypt := kernels.NewCrypt(cryptKiB << 10)
	ns, _ = probeLoop(iters(12), func(n int) {
		for i := 0; i < n; i++ {
			crypt.RunSeq()
		}
	})
	res.set("kernels.crypt_seq_ns_per_kib", ns/cryptKiB)
	ns, _ = probeLoop(iters(12), func(n int) {
		for i := 0; i < n; i++ {
			crypt.RunPar(nproc)
		}
	})
	res.set("kernels.crypt_par_ns_per_kib", ns/cryptKiB)
	if err := crypt.Validate(); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}

	if err := netProbes(res, reg, iters); err != nil {
		return nil, err
	}

	// httpserver: one keep-alive client, 1 KiB requests, both organisations.
	request := make(map[httpserver.Mode]float64)
	for _, mode := range []httpserver.Mode{httpserver.Pyjama, httpserver.Jetty} {
		srv := httpserver.New(httpserver.Config{Mode: mode, Workers: nproc, KernelBytes: httpSmall})
		base, err := srv.Start()
		if err != nil {
			return nil, err
		}
		client := httpserver.NewClient(base)
		var failed error
		ns, allocs = probeLoop(iters(2000), func(n int) {
			for i := 0; i < n; i++ {
				if _, err := client.Encrypt(httpSmall); err != nil {
					failed = err
				}
			}
		})
		srv.Stop()
		if failed != nil {
			return nil, fmt.Errorf("probe: httpserver %v: %w", mode, failed)
		}
		request[mode] = ns
		if mode == httpserver.Pyjama {
			res.set("httpserver.request_ns", ns)
			res.set("httpserver.request_allocs", allocs)
		} else {
			res.set("httpserver.jetty_request_ns", ns)
		}
	}
	res.set("httpserver.pyjama_over_jetty", request[httpserver.Pyjama]/request[httpserver.Jetty])
	return notes, nil
}

// netProbes measures the reactor and netloop probes over loopback sockets,
// with a blocking net.Conn as the peer so that only one side is the layer
// under test. Without a poller the reactor's read 0 and netloop runs on its
// goroutine-per-connection transport.
func netProbes(res *result, reg *gid.Registry, iters func(int) int) error {
	line := []byte(strings.Repeat("x", chatLineLen-1) + "\n")
	back := make([]byte, len(line))
	var failed error
	pingPong := func(conn net.Conn) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if _, err := conn.Write(line); err != nil {
					failed = err
				}
				if _, err := io.ReadFull(conn, back); err != nil {
					failed = err
				}
			}
		}
	}

	if reactor.Supported {
		r, err := reactor.New("probe/reactor", reg)
		if err != nil {
			return err
		}
		addr, err := r.Listen("127.0.0.1:0", func(*reactor.Conn) reactor.HandlerFuncs {
			return reactor.HandlerFuncs{OnReadable: func(c *reactor.Conn, data []byte) { c.Write(data) }}
		})
		if err != nil {
			return err
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		ns, allocs := probeLoop(iters(5000), pingPong(conn))
		conn.Close()
		res.set("reactor.echo_rtt_ns", ns)
		res.set("reactor.echo_allocs", allocs)

		// Write alone: a reactor connection whose peer only drains.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			if peer, err := ln.Accept(); err == nil {
				io.Copy(io.Discard, peer)
				peer.Close()
			}
		}()
		rc, err := r.Dial(ln.Addr().String(), reactor.HandlerFuncs{})
		if err != nil {
			return err
		}
		ns, _ = probeLoop(iters(200_000), func(n int) {
			for i := 0; i < n; i++ {
				if err := rc.Write(line); err != nil {
					failed = err
				}
			}
		})
		res.set("reactor.write_ns", ns)
		rc.Close()
		r.Stop()
		ln.Close()
		<-drained
	} else {
		for _, name := range []string{"reactor.echo_rtt_ns", "reactor.echo_allocs", "reactor.write_ns"} {
			res.set(name, 0)
		}
	}

	// netloop: a line there and back, then Client.Send alone, timed inside
	// a handler that sends a burst to a peer that only drains.
	srv := netloop.New("probe/netloop", reg)
	if reactor.Supported {
		if err := srv.EnableReactor(); err != nil {
			return err
		}
	}
	type burst struct {
		nsPerSend float64
		err       error
	}
	bursts := make(chan burst, 1)
	srv.HandleFunc(func(c *netloop.Client, msg string) {
		var n int
		if _, err := fmt.Sscanf(msg, "burst %d", &n); err != nil {
			c.Send(msg)
			return
		}
		text := string(line[:len(line)-1])
		var b burst
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := c.Send(text); err != nil {
				b.err = err
			}
		}
		b.nsPerSend = float64(time.Since(t0).Nanoseconds()) / float64(n)
		bursts <- b
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	ns, allocs := probeLoop(iters(5000), pingPong(conn))
	res.set("netloop.line_rtt_ns", ns)
	res.set("netloop.line_allocs", allocs)
	var sends []float64
	rd := bufio.NewReader(conn)
	for rep := 0; rep < probeReps; rep++ {
		n := iters(100_000)
		if _, err := fmt.Fprintf(conn, "burst %d\n", n); err != nil {
			return err
		}
		if _, err := io.CopyN(io.Discard, rd, int64(n*len(line))); err != nil {
			return err
		}
		b := <-bursts
		if b.err != nil {
			failed = b.err
		}
		sends = append(sends, b.nsPerSend)
	}
	res.set("netloop.send_ns", median(sends))
	conn.Close()
	srv.Stop()
	if failed != nil {
		return fmt.Errorf("probe: network: %w", failed)
	}
	return nil
}
