// Command httpbench regenerates Figure 9 of the paper: throughput
// (responses/sec) of the HTTP encryption service versus the number of
// concurrency worker threads, for four series — Jetty, Pyjama, and each
// combined with per-request OpenMP parallelization.
//
// Example:
//
//	httpbench -workers 1,2,4,8,16 -users 100 -reqs 2
//
// With -overload it instead runs the QoS overload scenario: offered load
// far beyond worker capacity against a Pyjama server with and without
// admission control, reporting shed rate and success-latency percentiles.
//
//	httpbench -overload -overload-capacity 2 -overload-users 64
//
// With -chaos it runs the failure drill: worker goroutines are killed at a
// configurable rate under load, against a supervised and an unsupervised
// server, reporting completions, typed failures, client timeouts (the
// wedges), respawns, and watchdog stalls.
//
//	httpbench -chaos -chaos-rate 0.1
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/evaluation"
	"repro/internal/httpserver"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	var (
		workerList = flag.String("workers", "1,2,4,8,16", "comma-separated worker thread counts (x-axis)")
		users      = flag.Int("users", 100, "virtual users")
		reqs       = flag.Int("reqs", 2, "requests per user")
		kbytes     = flag.Int("kbytes", 64, "encryption payload per request (KiB)")
		ompThreads = flag.Int("omp", 4, "team size for the +omp series")
		noOmp      = flag.Bool("no-omp-series", false, "skip the +omp series")
		latency    = flag.Bool("latency", false, "also print per-request p50/p99 latency")
		sched      = flag.Bool("sched", false, "also print the worker target's scheduler counters (submitted/completed/helped/rejected/peak)")

		overload   = flag.Bool("overload", false, "run the QoS overload scenario instead of the Figure 9 sweep")
		olCapacity = flag.Int("overload-capacity", 2, "worker threads for the overload scenario")
		olUsers    = flag.Int("overload-users", 64, "concurrent users offering load (should exceed capacity)")
		olReqs     = flag.Int("overload-reqs", 8, "requests per user")
		olTimeout  = flag.Duration("overload-timeout", 100*time.Millisecond, "per-request deadline for the qos series")
		olQueue    = flag.Int("overload-queue", 4, "qos wait-queue bound (requests)")
		olCoDel    = flag.Duration("overload-codel", 0, "CoDel sojourn target for the qos series (0 = queue-deadline policy)")

		chaosRun   = flag.Bool("chaos", false, "run the failure drill instead of the Figure 9 sweep")
		chCapacity = flag.Int("chaos-capacity", 4, "worker threads for the failure drill")
		chUsers    = flag.Int("chaos-users", 8, "concurrent users during the drill")
		chReqs     = flag.Int("chaos-reqs", 50, "requests per user")
		chRate     = flag.Float64("chaos-rate", 0.1, "probability a task kills its worker")
		chKills    = flag.Int("chaos-kills", 20, "cap on injected kills per series")
		chTimeout  = flag.Duration("chaos-timeout", 2*time.Second, "client timeout (bounds each wedged request)")

		traceOut = flag.String("trace", "", "capture causal spans and write a Chrome/Perfetto trace-event JSON file here")
	)
	flag.Parse()

	if *traceOut != "" {
		// The span ring sits under the servers' own metrics sinks (they
		// chain to it), so one capture spans every series of the run.
		buf := trace.NewBuffer(1 << 18)
		trace.SetGlobal(buf)
		defer writeTrace(*traceOut, buf)
	}

	if *overload {
		runOverload(*olCapacity, *olUsers, *olReqs, *kbytes*1024, *olQueue, *olTimeout, *olCoDel)
		return
	}
	if *chaosRun {
		runChaos(*chCapacity, *chUsers, *chReqs, *kbytes*1024, *chRate, *chKills, *chTimeout)
		return
	}

	workers, err := parseInts(*workerList)
	if err != nil {
		fail(err)
	}
	kernelBytes := *kbytes * 1024

	type series struct {
		mode httpserver.Mode
		omp  int
	}
	sweep := []series{{httpserver.Jetty, 1}, {httpserver.Pyjama, 1}}
	if !*noOmp {
		sweep = append(sweep, series{httpserver.Jetty, *ompThreads}, series{httpserver.Pyjama, *ompThreads})
	}

	fmt.Printf("httpbench: Evaluation B (Figure 9) — throughput (responses/sec) vs worker threads\n")
	fmt.Printf("users=%d  requests/user=%d  payload=%dKiB  omp=%d\n\n", *users, *reqs, *kbytes, *ompThreads)
	fmt.Printf("%-16s", "series \\ workers")
	for _, w := range workers {
		fmt.Printf("%10d", w)
	}
	fmt.Println()
	for _, s := range sweep {
		results, err := evaluation.Figure9Series(s.mode, s.omp, workers, kernelBytes, *users, *reqs)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-16s", results[0].Label())
		for _, r := range results {
			fmt.Printf("%10.2f", r.Throughput)
		}
		fmt.Println()
		if *latency {
			fmt.Printf("%-16s", "  p50/p99 (ms)")
			for _, r := range results {
				fmt.Printf(" %4.0f/%4.0f", msOf(r.Latency.P50), msOf(r.Latency.P99))
			}
			fmt.Println()
		}
		if *sched {
			// The counters behind benchmark/'s executor.* probes, from the widest sweep point:
			// how much work the dispatch path moved and how deep it queued.
			st := results[len(results)-1].Sched
			if st.Submitted > 0 {
				fmt.Printf("%-16s submitted=%d completed=%d helped=%d steals=%d rejected=%d peak=%d\n",
					"  sched", st.Submitted, st.Completed, st.Helped, st.Steals, st.Rejected, st.QueuePeak)
			}
		}
	}
}

// runOverload offers users×reqs requests from users concurrent clients to
// a Pyjama server of capacity workers — an offered load far beyond
// capacity — once without QoS (the seed's unbounded queue) and once with
// admission control, and reports throughput, shed rate, and the latency
// distribution of successful responses for each.
func runOverload(capacity, users, reqs, kernelBytes, queueLimit int, timeout, codel time.Duration) {
	qosCfg := &httpserver.QoSConfig{
		QueueLimit:     queueLimit,
		RequestTimeout: timeout,
		CoDelTarget:    codel,
	}
	fmt.Printf("httpbench: overload scenario — %d users × %d reqs against %d workers (payload %dKiB)\n",
		users, reqs, capacity, kernelBytes/1024)
	fmt.Printf("qos: queue=%d timeout=%v policy=%s\n\n", queueLimit, timeout, qosCfg)
	fmt.Printf("%-14s %8s %8s %8s %9s %10s %10s %10s\n",
		"series", "ok", "shed", "errors", "shedrate", "resp/sec", "p50(ms)", "p99(ms)")
	for _, run := range []struct {
		label string
		qos   *httpserver.QoSConfig
	}{
		{"pyjama", nil},
		{"pyjama+qos", qosCfg},
	} {
		srv := httpserver.New(httpserver.Config{
			Mode: httpserver.Pyjama, Workers: capacity, KernelBytes: kernelBytes, QoS: run.qos,
		})
		base, err := srv.Start()
		if err != nil {
			fail(err)
		}
		lat := metrics.NewHistogram()
		var mu sync.Mutex
		var ok, shed, errs int64
		meter := metrics.NewThroughputMeter()
		meter.Start()
		var wg sync.WaitGroup
		for u := 0; u < users; u++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := httpserver.NewClient(base)
				for i := 0; i < reqs; i++ {
					start := time.Now()
					_, status, err := c.Do(0)
					d := time.Since(start)
					mu.Lock()
					switch {
					case err == nil:
						ok++
						lat.Observe(d)
						meter.Add(1)
					case status == 503:
						shed++
					default:
						errs++
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		meter.Stop()
		srv.Stop()
		total := float64(ok + shed + errs)
		fmt.Printf("%-14s %8d %8d %8d %8.1f%% %10.1f %10.1f %10.1f\n",
			run.label, ok, shed, errs, 100*float64(shed)/total, meter.PerSecond(),
			msOf(lat.Quantile(0.5)), msOf(lat.Quantile(0.99)))
	}
	fmt.Printf("\nWithout qos every request queues (p99 grows with offered load); with qos\n")
	fmt.Printf("overflow is shed as 503s and the p99 of admitted requests stays bounded.\n")
}

// runChaos is the failure drill: the same worker-kill schedule (seeded via
// CHAOS_SEED, default 1337) is injected into an unsupervised and a
// supervised Pyjama server under identical load. The unsupervised series
// loses workers for good — once the pool is empty every request wedges
// until the client timeout, and only the stall watchdog notices; the
// supervised series respawns killed workers within its restart budget and
// keeps answering.
func runChaos(capacity, users, reqs, kernelBytes int, rate float64, kills int, timeout time.Duration) {
	seed := chaos.SeedFromEnv(1337)
	fmt.Printf("httpbench: failure drill — kill rate %.0f%% (max %d) against %d workers, %d users × %d reqs, seed %d\n\n",
		100*rate, kills, capacity, users, reqs, seed)
	fmt.Printf("%-18s %8s %8s %8s %9s %8s %9s %8s %10s\n",
		"series", "ok", "shed", "errors", "timeouts", "kills", "respawns", "stalls", "healthz")
	for _, run := range []struct {
		label   string
		restart bool
	}{
		{"pyjama", false},
		{"pyjama+supervise", true},
	} {
		inj := chaos.New(seed, chaos.Rule{Action: chaos.Kill, Rate: rate, Count: kills})
		srv := httpserver.New(httpserver.Config{
			Mode: httpserver.Pyjama, Workers: capacity, KernelBytes: kernelBytes,
			Chaos: inj,
			Supervise: &httpserver.SuperviseConfig{
				Restart:          run.restart,
				RespawnWorkers:   true,
				MaxRestarts:      2 * kills,
				Window:           time.Second,
				BackoffInitial:   time.Millisecond,
				BackoffMax:       10 * time.Millisecond,
				WatchdogInterval: 20 * time.Millisecond,
				StallAfter:       200 * time.Millisecond,
			},
		})
		base, err := srv.Start()
		if err != nil {
			fail(err)
		}
		var mu sync.Mutex
		var ok, shed, errs, timeouts int64
		var wg sync.WaitGroup
		for u := 0; u < users; u++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := httpserver.NewClientTimeout(base, timeout)
				for i := 0; i < reqs; i++ {
					_, status, err := c.Do(0)
					mu.Lock()
					switch {
					case err == nil:
						ok++
					case status == 503:
						shed++
					case status != 0:
						errs++
					default:
						timeouts++ // transport failure: the wedge
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		health, _, herr := httpserver.NewClientTimeout(base, time.Second).Healthz()
		if herr != nil {
			health = "unreachable"
		}
		var respawns int64
		if s := srv.Supervisor(); s != nil {
			respawns = s.Stats().Respawns.Value() + s.Stats().Restarts.Value()
		}
		stalls := srv.Watchdog().Stalls()
		srv.Stop()
		fmt.Printf("%-18s %8d %8d %8d %9d %8d %9d %8d %10s\n",
			run.label, ok, shed, errs, timeouts, inj.Injected(chaos.Kill), respawns, stalls, health)
	}
	fmt.Printf("\nUnsupervised, killed workers stay dead: the pool drains to zero, requests\n")
	fmt.Printf("wedge until the client gives up, and the watchdog reports the stall. With\n")
	fmt.Printf("supervision each death is repaired within the restart budget and the same\n")
	fmt.Printf("schedule ends with the drill served and /healthz back to ok.\n")
}

// writeTrace exports the captured span ring as trace-event JSON (open at
// https://ui.perfetto.dev) and prints a one-line capture summary to stderr.
func writeTrace(path string, buf *trace.Buffer) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "httpbench: trace: %v\n", err)
		return
	}
	defer f.Close()
	if err := trace.ExportTraceEventBuffer(f, buf); err != nil {
		fmt.Fprintf(os.Stderr, "httpbench: trace export: %v\n", err)
		return
	}
	tree := trace.BuildTree(buf.Snapshot())
	fmt.Fprintf(os.Stderr, "httpbench: wrote %d events (%d spans, depth %d, %d overwritten) to %s — open at https://ui.perfetto.dev\n",
		buf.Len(), len(tree.ByID), tree.Depth(), buf.Overwritten(), path)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad worker count %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "httpbench: %v\n", err)
	os.Exit(1)
}
