package evaluation

import (
	"runtime"
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
			Mode: mode, Workers: 2, KernelBytes: 8 * 1024,
			Users: 8, RequestsPerUser: 3,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Served != 24 || res.Failed != 0 {
			t.Fatalf("%v: served %d failed %d", mode, res.Served, res.Failed)
		}
		if res.Throughput <= 0 {
			t.Fatalf("%v: throughput %v", mode, res.Throughput)
		}
	}
}

func TestEvalBLabels(t *testing.T) {
	r := EvalBResult{Config: EvalBConfig{Mode: httpserver.Pyjama, OMPThreads: 4}}
	if r.Label() != "pyjama+omp" {
		t.Fatalf("Label = %q", r.Label())
	}
	r2 := EvalBResult{Config: EvalBConfig{Mode: httpserver.Jetty}}
	if r2.Label() != "jetty" {
		t.Fatalf("Label = %q", r2.Label())
	}
}

func TestFigure9SeriesSweep(t *testing.T) {
	res, err := Figure9Series(httpserver.Jetty, 1, []int{1, 2}, 4*1024, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("series length %d", len(res))
	}
	for i, r := range res {
		if r.Config.Workers != i+1 {
			t.Fatalf("sweep order wrong: %+v", r.Config)
		}
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
