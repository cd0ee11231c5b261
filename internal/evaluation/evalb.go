package evaluation

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/httpserver"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// EvalBConfig parameterizes one Evaluation B run (one point of Figure 9:
// one server organization, one worker-thread count, ± per-request
// parallelization).
type EvalBConfig struct {
	// Server is the service under load: organization (Jetty or Pyjama),
	// worker threads (Figure 9 x-axis), per-request team size, payload, and
	// the QoS / Supervise / Chaos extensions.
	Server httpserver.Config
	// Users and RequestsPerUser shape the closed-loop load (paper: 100
	// virtual users, constant requests each).
	Users           int
	RequestsPerUser int
}

func (c *EvalBConfig) fill() {
	if c.Users <= 0 {
		c.Users = 100
	}
	if c.RequestsPerUser <= 0 {
		c.RequestsPerUser = 2
	}
}

// HTTPLoad is what one closed-loop run of virtual users saw. Every request
// lands in exactly one of the four counters.
type HTTPLoad struct {
	OK       int64 // 200 with a checksum
	Shed     int64 // 503: refused by admission control, or a typed compute failure
	Errors   int64 // any other answer
	Timeouts int64 // no answer: refused, reset, or the client timeout (a wedged request)
	// Latency holds the response times of the OK requests only.
	Latency *metrics.Histogram
	Wall    time.Duration
}

// Throughput is OK responses per second of wall time.
func (l HTTPLoad) Throughput() float64 { return workload.MeanRate(int(l.OK), l.Wall) }

// DriveHTTP is the one closed-loop HTTP load generator: users virtual users
// each send reqsPerUser encrypt requests back to back to the started server
// at base, giving up on a request after timeout.
func DriveHTTP(base string, users, reqsPerUser int, timeout time.Duration) HTTPLoad {
	client := httpserver.NewClientTimeout(base, timeout)
	load := HTTPLoad{Latency: metrics.NewHistogram()}
	var ok, shed, errs, timeouts atomic.Int64
	vu := &workload.VirtualUsers{Users: users, RequestsPerUser: reqsPerUser}
	load.Wall = vu.Run(func(int, int) {
		t0 := time.Now()
		_, status, err := client.Do(0)
		switch {
		case err == nil:
			ok.Add(1)
			load.Latency.Observe(time.Since(t0))
		case status == http.StatusServiceUnavailable:
			shed.Add(1)
		case status != 0:
			errs.Add(1)
		default:
			timeouts.Add(1)
		}
	})
	load.OK, load.Shed, load.Errors, load.Timeouts = ok.Load(), shed.Load(), errs.Load(), timeouts.Load()
	return load
}

// EvalBResult is one throughput measurement.
type EvalBResult struct {
	Config EvalBConfig
	// HTTPLoad is the run as the virtual users saw it (latency is an
	// extension beyond the paper's throughput-only Figure 9).
	HTTPLoad
	// Sched is the worker target's scheduler counter snapshot at the end of
	// the run (zero in Jetty mode, which has no virtual-target runtime).
	Sched executor.Stats
}

// Label renders the series name the paper uses ("jetty", "pyjama",
// "jetty+omp", "pyjama+omp"), with "+qos" for an admission-controlled server.
func (r EvalBResult) Label() string {
	l := r.Config.Server.Mode.String()
	if r.Config.Server.OMPThreads > 1 {
		l += "+omp"
	}
	if r.Config.Server.QoS != nil {
		l += "+qos"
	}
	return l
}

// RunEvalB starts a server with the given configuration, drives it with the
// virtual-user pool, and reports achieved throughput.
func RunEvalB(cfg EvalBConfig) (*EvalBResult, error) {
	cfg.fill()
	srv := httpserver.New(cfg.Server)
	base, err := srv.Start()
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	load := DriveHTTP(base, cfg.Users, cfg.RequestsPerUser, time.Minute)
	if load.OK == 0 {
		return nil, fmt.Errorf("evaluation: no requests served")
	}
	return &EvalBResult{Config: cfg, HTTPLoad: load, Sched: srv.SchedStats()["worker"]}, nil
}

// Figure9 runs the worker-thread sweep for every series of Figure 9 — jetty
// and pyjama, then (when ompThreads > 1) each with per-request teams of
// ompThreads — and returns one row of results per series, in sweep order.
// base supplies the payload and the load shape.
func Figure9(base EvalBConfig, workers []int, ompThreads int) ([][]*EvalBResult, error) {
	teams := []int{1}
	if ompThreads > 1 {
		teams = append(teams, ompThreads)
	}
	var out [][]*EvalBResult
	for _, team := range teams {
		for _, mode := range []httpserver.Mode{httpserver.Jetty, httpserver.Pyjama} {
			var series []*EvalBResult
			for _, w := range workers {
				cfg := base
				cfg.Server.Mode, cfg.Server.Workers, cfg.Server.OMPThreads = mode, w, team
				res, err := RunEvalB(cfg)
				if err != nil {
					return nil, err
				}
				series = append(series, res)
			}
			out = append(out, series)
		}
	}
	return out, nil
}
