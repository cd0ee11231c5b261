package evaluation

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpserver"
	"repro/internal/kernels"
	"repro/internal/testutil/raceflag"
)

func TestEvalAAllApproachesComplete(t *testing.T) {
	for _, a := range Approaches() {
		cfg := EvalAConfig{
			Kernel:   "crypt",
			Approach: a,
			Rate:     200,
			Events:   20,
			Timeout:  30 * time.Second,
		}
		res, err := RunEvalA(cfg)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if res.Collector.Len() != 20 {
			t.Fatalf("%s: recorded %d/20 events", a, res.Collector.Len())
		}
		if res.Violations != 0 {
			t.Fatalf("%s: %d EDT confinement violations", a, res.Violations)
		}
		if res.Response.Mean <= 0 {
			t.Fatalf("%s: non-positive mean response", a)
		}
		// Every event performed at least the two status updates.
		if res.GUIUpdates < int64(2*20) {
			t.Fatalf("%s: only %d GUI updates", a, res.GUIUpdates)
		}
	}
}

func TestEvalAConfigValidation(t *testing.T) {
	if _, err := RunEvalA(EvalAConfig{Kernel: "nope", Approach: Sequential, Rate: 10}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if _, err := RunEvalA(EvalAConfig{Kernel: "crypt", Approach: "warp", Rate: 10}); err == nil {
		t.Fatal("unknown approach accepted")
	}
	if _, err := RunEvalA(EvalAConfig{Kernel: "crypt", Approach: Sequential}); err == nil {
		t.Fatal("zero rate accepted")
	}
}

// TestEvalAShape_OffloadingReducesOccupancy asserts the core claim of
// Figures 7-8: asynchronous approaches keep the EDT occupied far less than
// the sequential handler, for the same kernel and load.
func TestEvalAShape_OffloadingReducesOccupancy(t *testing.T) {
	// Calibrate a kernel of roughly 8ms so queuing is observable.
	size := kernels.Calibrate(func(s int) kernels.Kernel { return kernels.NewCrypt(s) },
		64*1024, 8*time.Millisecond)
	run := func(a Approach) *EvalAResult {
		res, err := RunEvalA(EvalAConfig{
			Kernel: "crypt", KernelSize: size, Approach: a,
			Rate: 50, Events: 25, Timeout: time.Minute,
		})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		return res
	}
	seq := run(Sequential)
	async := run(PyjamaAsync)
	sw := run(SwingWorker)
	es := run(ExecutorService)

	// The sequential EDT occupancy per event is the kernel time (>= ~4ms);
	// the offloading approaches occupy the EDT only to post work.
	if seq.Occupancy.Mean < 2*time.Millisecond {
		t.Fatalf("sequential occupancy suspiciously low: %v", seq.Occupancy.Mean)
	}
	for _, r := range []*EvalAResult{async, sw, es} {
		if r.Occupancy.Mean*4 > seq.Occupancy.Mean {
			t.Fatalf("%s occupancy %v not well below sequential %v",
				r.Config.Approach, r.Occupancy.Mean, seq.Occupancy.Mean)
		}
	}
}

// TestEvalAShape_SequentialDegradesUnderLoad asserts Figure 1(i): when the
// offered load exceeds the sequential service rate, response time balloons
// as events queue; pyjama offloading with multiple workers keeps it bounded.
func TestEvalAShape_SequentialDegradesUnderLoad(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("timing-shape assertion is unreliable under race instrumentation")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		// Figure 1(i)'s shape needs parallel capacity: with one CPU the
		// offloaded workers share the sequential handler's core and
		// cannot keep response time bounded.
		t.Skip("shape comparison requires ≥ 2 CPUs")
	}
	size := kernels.Calibrate(func(s int) kernels.Kernel { return kernels.NewCrypt(s) },
		64*1024, 8*time.Millisecond)
	run := func(a Approach) *EvalAResult {
		res, err := RunEvalA(EvalAConfig{
			Kernel: "crypt", KernelSize: size, Approach: a,
			Rate: 300, Events: 40, Workers: 4, Timeout: time.Minute,
		})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		return res
	}
	// Sequential queues: its p90 must exceed the async approach's. The
	// comparison is a statement about load shape, not a single sample —
	// retry to ride out scheduler noise on busy CI machines.
	var seq, async *EvalAResult
	for attempt := 0; attempt < 3; attempt++ {
		seq = run(Sequential)
		async = run(PyjamaAsync)
		if seq.Response.P90 > async.Response.P90 {
			return
		}
	}
	t.Fatalf("sequential p90 %v not worse than pyjama-async p90 %v under overload (3 attempts)",
		seq.Response.P90, async.Response.P90)
}

func TestEvalBJettyAndPyjama(t *testing.T) {
	for _, mode := range []httpserver.Mode{httpserver.Jetty, httpserver.Pyjama} {
		res, err := RunEvalB(EvalBConfig{
			Server: httpserver.Config{Mode: mode, Workers: 2, KernelBytes: 8 * 1024},
			Users:  8, RequestsPerUser: 3,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if failed := res.Shed + res.Errors + res.Timeouts; res.OK != 24 || failed != 0 {
			t.Fatalf("%v: ok %d failed %d", mode, res.OK, failed)
		}
		if res.Latency.Count() != 24 {
			t.Fatalf("%v: %d latency samples, want 24", mode, res.Latency.Count())
		}
		if res.Throughput() <= 0 {
			t.Fatalf("%v: throughput %v", mode, res.Throughput())
		}
	}
}

func TestEvalBLabels(t *testing.T) {
	for want, srv := range map[string]httpserver.Config{
		"jetty":      {Mode: httpserver.Jetty},
		"pyjama+omp": {Mode: httpserver.Pyjama, OMPThreads: 4},
		"pyjama+qos": {Mode: httpserver.Pyjama, QoS: &httpserver.QoSConfig{}},
	} {
		if got := (EvalBResult{Config: EvalBConfig{Server: srv}}).Label(); got != want {
			t.Errorf("Label = %q, want %q", got, want)
		}
	}
}

// TestFigure9SeriesSweep pins the shape both httpbench and report print:
// the paper's four series in its order, each swept over the worker counts in
// the order given; a team size of 1 leaves the two +omp series out.
func TestFigure9SeriesSweep(t *testing.T) {
	base := EvalBConfig{Server: httpserver.Config{KernelBytes: 4 * 1024}, Users: 4, RequestsPerUser: 2}
	table, err := Figure9(base, []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"jetty", "pyjama", "jetty+omp", "pyjama+omp"}
	if len(table) != len(want) {
		t.Fatalf("%d series, want %d", len(table), len(want))
	}
	for i, series := range table {
		if len(series) != 2 {
			t.Fatalf("%s: series length %d", want[i], len(series))
		}
		for j, r := range series {
			if r.Label() != want[i] || r.Config.Server.Workers != j+1 {
				t.Fatalf("table[%d][%d] = %s at %d workers, want %s at %d",
					i, j, r.Label(), r.Config.Server.Workers, want[i], j+1)
			}
			if r.OK != 8 {
				t.Fatalf("%s at %d workers: ok %d, want 8", want[i], j+1, r.OK)
			}
		}
	}
	if table, err = Figure9(base, []int{1}, 1); err != nil || len(table) != 2 {
		t.Fatalf("team size 1: %d series, err %v; want jetty and pyjama only", len(table), err)
	}
}

// TestDriveHTTPClassifiesEachOutcomeOnce drives a handler that answers 200,
// 503, 500 or not at all: each request lands in exactly one counter and only
// the 200s reach the latency histogram.
func TestDriveHTTPClassifiesEachOutcomeOnce(t *testing.T) {
	var n atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 4 {
		case 0:
			fmt.Fprintln(w, 42)
		case 1:
			http.Error(w, "busy", http.StatusServiceUnavailable)
		case 2:
			http.Error(w, "boom", http.StatusInternalServerError)
		default: // never answers: the client gives up
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}
	}))
	defer ts.Close()
	defer close(release)

	load := DriveHTTP(ts.URL, 4, 5, 200*time.Millisecond)
	if load.OK != 5 || load.Shed != 5 || load.Errors != 5 || load.Timeouts != 5 {
		t.Fatalf("ok/shed/errors/timeouts = %d/%d/%d/%d, want 5 each",
			load.OK, load.Shed, load.Errors, load.Timeouts)
	}
	if got := load.Latency.Count(); got != 5 {
		t.Fatalf("latency histogram holds %d samples, want the 5 OK requests only", got)
	}
	if load.Wall < 200*time.Millisecond || load.Throughput() <= 0 {
		t.Fatalf("wall %v throughput %v", load.Wall, load.Throughput())
	}
}

// TestSweepACalibratesOncePerKernel swaps the calibration for a counting
// fake: one call per SweepA whatever the size of the matrix, every point run
// at the size it returned, and an unknown approach refused before it is paid.
func TestSweepACalibratesOncePerKernel(t *testing.T) {
	calls := 0
	calibrate = func(f kernels.Factory, start int, target time.Duration) int {
		calls++
		if target != 3*time.Millisecond {
			t.Errorf("calibration target %v, want the handler duration", target)
		}
		return start / 2
	}
	defer func() { calibrate = kernels.Calibrate }()

	base := EvalAConfig{Kernel: "crypt", Events: 4, Timeout: 30 * time.Second}
	approaches := []Approach{Sequential, ExecutorService, PyjamaAsync}
	rates := []float64{200, 400}
	size, rows, err := SweepA(base, 3*time.Millisecond, approaches, rates)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || size != kernels.TestSize("crypt")/2 {
		t.Fatalf("%d calibrations, size %d; want 1 and the fake's answer", calls, size)
	}
	if len(rows) != len(approaches) {
		t.Fatalf("%d rows, want one per approach", len(rows))
	}
	for i, row := range rows {
		if len(row) != len(rates) {
			t.Fatalf("%s: %d points, want one per rate", approaches[i], len(row))
		}
		for j, res := range row {
			c := res.Config
			if c.Approach != approaches[i] || c.Rate != rates[j] || c.KernelSize != size {
				t.Fatalf("rows[%d][%d] ran %s at %v with size %d", i, j, c.Approach, c.Rate, c.KernelSize)
			}
			if res.Collector.Len() != 4 {
				t.Fatalf("%s at %v: %d/4 events", c.Approach, c.Rate, res.Collector.Len())
			}
		}
	}

	if _, _, err := SweepA(base, 3*time.Millisecond, []Approach{Sequential, "warp"}, rates); err == nil {
		t.Fatal("unknown approach accepted")
	}
	base.Kernel = "nope"
	if _, _, err := SweepA(base, 3*time.Millisecond, approaches, rates); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if calls != 1 {
		t.Fatalf("a refused sweep still calibrated (%d calls)", calls)
	}
}

// TestProbeResponsiveness measures perceived responsiveness directly: probe
// events posted during the run must be dispatched far faster under the
// offloading approach than under the sequential one at saturating load.
func TestProbeResponsiveness(t *testing.T) {
	size := kernels.Calibrate(func(s int) kernels.Kernel { return kernels.NewCrypt(s) },
		64*1024, 8*time.Millisecond)
	run := func(a Approach) *EvalAResult {
		res, err := RunEvalA(EvalAConfig{
			Kernel: "crypt", KernelSize: size, Approach: a,
			Rate: 150, Events: 30, ProbeRate: 200, Timeout: time.Minute,
		})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		return res
	}
	seq := run(Sequential)
	async := run(PyjamaAsync)
	if seq.Probe.Count == 0 || async.Probe.Count == 0 {
		t.Fatalf("probes not recorded: seq=%d async=%d", seq.Probe.Count, async.Probe.Count)
	}
	if async.Probe.P90 >= seq.Probe.P90 {
		t.Fatalf("probe p90: pyjama-async %v not better than sequential %v under overload",
			async.Probe.P90, seq.Probe.P90)
	}
}
