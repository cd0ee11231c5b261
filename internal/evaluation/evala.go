// Package evaluation reproduces the paper's two experiments.
//
// Evaluation A (Figures 7-8): a simulated Swing application receives events
// at a fixed request rate; each event's handler performs GUI updates before
// and after a Java Grande kernel execution. Approaches compared:
//
//	sequential            handler runs the kernel on the EDT
//	sync-parallel         kernel parallelized with omp, EDT is the master
//	                      and participates (the fork-join trap)
//	swingworker           offload via the SwingWorker idiom
//	executorservice       offload via a fixed pool + InvokeLater
//	pyjama-async          //#omp target virtual(worker) offload, nested EDT
//	                      update block (Figure 6 pattern)
//	pyjama-async-parallel same, kernel additionally parallelized inside the
//	                      offloaded block ("asynchronous parallel")
//
// The measured quantity is the paper's response time: "the time flow from
// the event firing to the finish of its event handling", including
// offloaded continuations and the final GUI update.
//
// Evaluation B (Figure 9) lives in evalb.go.
package evaluation

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gid"
	"repro/internal/gui"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Approach names a handler strategy.
type Approach string

// The handler strategies of Evaluation A.
const (
	Sequential          Approach = "sequential"
	SyncParallel        Approach = "sync-parallel"
	SwingWorker         Approach = "swingworker"
	ExecutorService     Approach = "executorservice"
	PyjamaAsync         Approach = "pyjama-async"
	PyjamaAsyncParallel Approach = "pyjama-async-parallel"
)

// Approaches returns all strategies in presentation order.
func Approaches() []Approach {
	return []Approach{Sequential, SyncParallel, SwingWorker, ExecutorService,
		PyjamaAsync, PyjamaAsyncParallel}
}

// EvalAConfig parameterizes one Evaluation A run (one point of Figure 7/8:
// one kernel, one approach, one request rate).
type EvalAConfig struct {
	// Kernel is the kernel family name (kernels.Names).
	Kernel string
	// KernelSize scales the kernel (0 = kernels.TestSize).
	KernelSize int
	// Approach is the handler strategy.
	Approach Approach
	// Rate is the offered event load in events/sec.
	Rate float64
	// Events is the number of events fired.
	Events int
	// Pattern selects arrival distribution (default constant).
	Pattern workload.Pattern
	// Workers sizes the background pool for the offloading approaches
	// (default 3, matching the paper's synchronous-parallel default of 3
	// worker threads; SwingWorker always uses its own 10-thread pool).
	Workers int
	// OMPThreads sizes the per-kernel parallel team for the *parallel
	// approaches (default 3, the paper's default).
	OMPThreads int
	// Timeout bounds the whole run (default 2 minutes).
	Timeout time.Duration
	// ProbeRate, when > 0, posts tiny probe events at this rate during the
	// run and records their dispatch latency. A probe is the analogue of a
	// user's mouse click landing while handlers are in flight: its latency
	// is the *perceived responsiveness* the paper's introduction is about,
	// as distinct from event completion time.
	ProbeRate float64
}

func (c *EvalAConfig) fill() error {
	if _, ok := kernels.Factories()[c.Kernel]; !ok {
		return fmt.Errorf("evaluation: unknown kernel %q", c.Kernel)
	}
	if c.KernelSize <= 0 {
		c.KernelSize = kernels.TestSize(c.Kernel)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("evaluation: rate must be positive")
	}
	if c.Events <= 0 {
		c.Events = 50
	}
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.OMPThreads <= 0 {
		c.OMPThreads = 3
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	return c.Approach.check()
}

func (a Approach) check() error {
	switch a {
	case Sequential, SyncParallel, SwingWorker, ExecutorService, PyjamaAsync, PyjamaAsyncParallel:
		return nil
	}
	return fmt.Errorf("evaluation: unknown approach %q", a)
}

// EvalAResult is the outcome of one Evaluation A run.
type EvalAResult struct {
	Config    EvalAConfig
	Collector *metrics.Collector
	// Response summarizes event response times (fired -> fully handled).
	Response metrics.Summary
	// Occupancy summarizes EDT occupancy per event (dispatch -> handler
	// return): the "idleness of the EDT" the paper maximizes.
	Occupancy metrics.Summary
	// Probe summarizes probe-event dispatch latency (zero-valued when
	// ProbeRate was 0): the responsiveness a user would perceive.
	Probe metrics.Summary
	// Wall is the wall-clock duration of the run.
	Wall time.Duration
	// GUIUpdates and Violations report widget activity and thread-safety.
	GUIUpdates int64
	Violations int64
}

// RunEvalA executes one Evaluation A configuration.
func RunEvalA(cfg EvalAConfig) (*EvalAResult, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	reg := &gid.Registry{}
	tk := gui.NewToolkit(reg)
	defer tk.Dispose()

	rt := core.NewRuntime(reg)
	defer rt.Shutdown()
	if err := rt.RegisterEDT("edt", tk.EDT()); err != nil {
		return nil, err
	}
	if _, err := rt.CreateWorker("worker", cfg.Workers); err != nil {
		return nil, err
	}
	var es *gui.ExecutorService
	if cfg.Approach == ExecutorService {
		es = gui.NewFixedThreadPool(cfg.Workers, reg)
		defer es.Shutdown()
	}

	factory := kernels.Factories()[cfg.Kernel]
	status := tk.NewLabel("status")
	collector := metrics.NewCollector()
	done := make(chan struct{}, cfg.Events)

	// handler builds the event-handling closure for event i. The record is
	// published only after BOTH the handler returned (HandlerDone) and the
	// event's work completed (Completed) — the two ends race for the
	// offloading approaches, so an atomic two-phase join orders the final
	// read of rec after both writes.
	handler := func(i int, fired time.Time) func() {
		return func() {
			rec := &metrics.ResponseRecord{Seq: i, Fired: fired, DispatchStart: time.Now()}
			var parts atomic.Int32
			maybeRecord := func() {
				if parts.Add(1) == 2 {
					collector.Record(*rec)
					done <- struct{}{}
				}
			}
			finish := func() {
				rec.Completed = time.Now()
				maybeRecord()
			}
			// Construction (building the input data) is part of the
			// kernel's work and runs wherever the kernel runs.
			runKernel := func(par bool) {
				k := factory(cfg.KernelSize)
				if par {
					k.RunPar(cfg.OMPThreads)
				} else {
					k.RunSeq()
				}
			}
			status.SetText(fmt.Sprintf("event %d: processing", i))
			switch cfg.Approach {
			case Sequential:
				runKernel(false)
				status.SetText(fmt.Sprintf("event %d: done", i))
				finish()
			case SyncParallel:
				// The EDT is the team master and participates in the
				// work-sharing region: responsive only after the join.
				runKernel(true)
				status.SetText(fmt.Sprintf("event %d: done", i))
				finish()
			case SwingWorker:
				w := gui.NewSwingWorker[int, int](tk)
				w.DoInBackground = func(publish func(...int)) int {
					runKernel(false)
					publish(100)
					return i
				}
				w.Process = func(vals []int) {
					status.SetText(fmt.Sprintf("event %d: %d%%", i, vals[len(vals)-1]))
				}
				w.Done = func(int) {
					status.SetText(fmt.Sprintf("event %d: done", i))
					finish()
				}
				w.Execute()
			case ExecutorService:
				es.Execute(func() {
					runKernel(false)
					tk.InvokeLater(func() {
						status.SetText(fmt.Sprintf("event %d: done", i))
						finish()
					})
				})
			case PyjamaAsync, PyjamaAsyncParallel:
				par := cfg.Approach == PyjamaAsyncParallel
				// //#omp target virtual(worker) nowait
				// { kernel; //#omp target virtual(edt) { update } }
				if _, err := rt.Invoke("worker", core.Nowait, func() {
					runKernel(par)
					rt.Invoke("edt", core.Wait, func() {
						status.SetText(fmt.Sprintf("event %d: done", i))
						finish()
					})
				}); err != nil {
					panic(err)
				}
			}
			// The handler is returning control to the event loop now; the
			// two-phase join publishes the record once the work side has
			// finished too.
			rec.HandlerDone = time.Now()
			maybeRecord()
		}
	}

	// Probe generator: tiny events whose queue delay measures how quickly
	// the EDT would react to fresh user input.
	probes := metrics.NewHistogram()
	stopProbes := make(chan struct{})
	var probeWg sync.WaitGroup
	if cfg.ProbeRate > 0 {
		probeWg.Add(1)
		go func() {
			defer probeWg.Done()
			tick := time.NewTicker(time.Duration(float64(time.Second) / cfg.ProbeRate))
			defer tick.Stop()
			for {
				select {
				case <-stopProbes:
					return
				case <-tick.C:
					fired := time.Now()
					tk.EDT().PostLabeled("probe", func() {
						probes.Observe(time.Since(fired))
					})
				}
			}
		}()
	}

	src := &workload.Source{Rate: cfg.Rate, Events: cfg.Events, Pattern: cfg.Pattern}
	start := time.Now()
	src.Run(func(i int) {
		h := handler(i, time.Now())
		tk.EDT().PostLabeled(fmt.Sprintf("event-%d", i), h)
	})
	// Await all completions.
	deadline := time.After(cfg.Timeout)
	for n := 0; n < cfg.Events; n++ {
		select {
		case <-done:
		case <-deadline:
			close(stopProbes)
			probeWg.Wait()
			return nil, fmt.Errorf("evaluation: timed out with %d/%d events handled (approach %s, rate %.0f)",
				n, cfg.Events, cfg.Approach, cfg.Rate)
		}
	}
	wall := time.Since(start)
	close(stopProbes)
	probeWg.Wait()

	return &EvalAResult{
		Config:     cfg,
		Collector:  collector,
		Response:   collector.ResponseHistogram().Summarize(),
		Occupancy:  collector.OccupancyHistogram().Summarize(),
		Probe:      probes.Summarize(),
		Wall:       wall,
		GUIUpdates: tk.Updates(),
		Violations: tk.Violations(),
	}, nil
}

// calibrate sizes a kernel to a target sequential duration; SweepA is its
// only caller, and a test substitutes a counting fake.
var calibrate = kernels.Calibrate

// SweepA runs one table of Figures 7-8: base.Kernel is calibrated once so a
// sequential handler takes about handler on this machine, then every
// approach runs at every rate with that size (base supplies events, pattern,
// workers, team size and timeout). It returns the calibrated size and the
// results indexed [approach][rate].
func SweepA(base EvalAConfig, handler time.Duration, approaches []Approach, rates []float64) (int, [][]*EvalAResult, error) {
	factory, ok := kernels.Factories()[base.Kernel]
	if !ok {
		return 0, nil, fmt.Errorf("evaluation: unknown kernel %q", base.Kernel)
	}
	for _, a := range approaches {
		if err := a.check(); err != nil {
			return 0, nil, err // before the calibration and the rows ahead of it are paid for
		}
	}
	base.KernelSize = calibrate(factory, kernels.TestSize(base.Kernel), handler)
	out := make([][]*EvalAResult, len(approaches))
	for i, a := range approaches {
		for _, rate := range rates {
			cfg := base
			cfg.Approach, cfg.Rate = a, rate
			res, err := RunEvalA(cfg)
			if err != nil {
				return 0, nil, err
			}
			out[i] = append(out[i], res)
		}
	}
	return base.KernelSize, out, nil
}
