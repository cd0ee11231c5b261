package evaluation

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eventloop"
	"repro/internal/gid"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/netloop"
)

// EvalCConfig parameterizes the framework-universality experiment: the
// Evaluation A comparison transplanted onto the netloop message server
// (the paper's further work, "support more event-driven frameworks"). A
// fleet of clients sends messages whose handling runs a kernel; the
// dispatch goroutine either computes inline (the single-threaded baseline)
// or offloads via a worker virtual target.
type EvalCConfig struct {
	// Kernel and KernelSize select the per-message computation.
	Kernel     string
	KernelSize int
	// Offload selects the pyjama-style handler (false = inline dispatch).
	Offload bool
	// Workers sizes the worker target for the offloading mode.
	Workers int
	// Clients and MessagesPerClient shape the load.
	Clients           int
	MessagesPerClient int
}

// evalCTimeout bounds one Eval C run.
const evalCTimeout = 2 * time.Minute

func (c *EvalCConfig) fill() error {
	if _, ok := kernels.Factories()[c.Kernel]; !ok {
		return fmt.Errorf("evaluation: unknown kernel %q", c.Kernel)
	}
	if c.KernelSize <= 0 {
		c.KernelSize = kernels.TestSize(c.Kernel)
	}
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.MessagesPerClient <= 0 {
		c.MessagesPerClient = 10
	}
	return nil
}

// EvalCResult reports the message round-trip latency distribution and the
// dispatch loop's occupancy profile.
type EvalCResult struct {
	Config EvalCConfig
	// RoundTrip summarizes client-observed request->reply latency.
	RoundTrip metrics.Summary
	// DispatchBusy summarizes how long each message event occupied the
	// dispatch goroutine.
	DispatchBusy metrics.Summary
	Wall         time.Duration
	Messages     int64
}

// RunEvalC drives the message server with closed-loop clients.
func RunEvalC(cfg EvalCConfig) (*EvalCResult, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	reg := &gid.Registry{}
	rt := core.NewRuntime(reg)
	defer rt.Shutdown()
	srv := netloop.New("dispatch", reg)
	defer srv.Stop()
	if err := rt.RegisterEDT("dispatch", srv.Loop()); err != nil {
		return nil, err
	}
	if _, err := rt.CreateWorker("worker", cfg.Workers); err != nil {
		return nil, err
	}

	factory := kernels.Factories()[cfg.Kernel]
	busy := metrics.NewHistogram()
	srv.Loop().SetObserver(func(d netloopDispatch) {
		if d.Label == "msg" {
			busy.Observe(d.Duration())
		}
	})

	srv.HandleFunc(func(c *netloop.Client, line string) {
		reply := func() { c.Send("done " + line) }
		compute := func() {
			k := factory(cfg.KernelSize)
			k.RunSeq()
		}
		if cfg.Offload {
			rt.Invoke("worker", core.Nowait, func() {
				compute()
				rt.Invoke("dispatch", core.Wait, reply)
			})
		} else {
			compute()
			reply()
		}
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	rtt := metrics.NewHistogram()
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for u := 0; u < cfg.Clients; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			conn, derr := net.Dial("tcp", addr)
			if derr != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = derr
				}
				mu.Unlock()
				return
			}
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			for m := 0; m < cfg.MessagesPerClient; m++ {
				t0 := time.Now()
				fmt.Fprintf(conn, "c%d-m%d\n", u, m)
				if !sc.Scan() {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("evaluation: connection dropped at message %d", m)
					}
					mu.Unlock()
					return
				}
				rtt.Observe(time.Since(t0))
			}
		}(u)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(evalCTimeout):
		return nil, fmt.Errorf("evaluation: eval C timed out")
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return &EvalCResult{
		Config:       cfg,
		RoundTrip:    rtt.Summarize(),
		DispatchBusy: busy.Summarize(),
		Wall:         time.Since(start),
		Messages:     srv.Messages(),
	}, nil
}

// netloopDispatch aliases the event loop's dispatch record (netloop reuses
// eventloop's instrumentation).
type netloopDispatch = eventloop.DispatchInfo
