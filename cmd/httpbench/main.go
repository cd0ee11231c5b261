// Command httpbench regenerates Figure 9 of the paper: throughput
// (responses/sec) of the HTTP encryption service versus the number of
// concurrency worker threads, for four series — Jetty, Pyjama, and each
// combined with per-request OpenMP parallelization — with each series'
// p50/p99 latency and the worker target's scheduler counters underneath.
//
// Example:
//
//	httpbench -workers 1,2,4,8,16 -users 100 -reqs 2
//
// With -overload it instead runs the QoS overload scenario: offered load
// far beyond worker capacity against a Pyjama server with and without
// admission control (a bounded wait queue and a per-request deadline),
// reporting shed rate and success-latency percentiles.
//
// With -chaos it runs the failure drill: worker goroutines are killed under
// load, against a supervised and an unsupervised server, reporting
// completions, typed failures, client timeouts (the wedges), respawns, and
// watchdog stalls.
//
// Both drills are gates: each exits non-zero when its table contradicts the
// sentence printed under it. All three tables come from the one load
// generator in internal/evaluation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/evaluation"
	"repro/internal/httpserver"
	"repro/internal/supervise"
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
		overload   = flag.Bool("overload", false, "run the QoS overload scenario instead of the Figure 9 sweep")
		chaosRun   = flag.Bool("chaos", false, "run the failure drill instead of the Figure 9 sweep")
		traceOut   = flag.String("trace", "", "capture causal spans and write a Chrome/Perfetto trace-event JSON file here")
	)
	flag.Parse()

	if *traceOut != "" {
		// The span ring sits under the servers' own metrics sinks (they
		// chain to it), so one capture spans every series of the run.
		buf := trace.NewBuffer(1 << 18)
		trace.SetGlobal(buf)
		defer func() {
			msg, err := trace.WriteFile(*traceOut, buf)
			if err != nil {
				fail(fmt.Errorf("trace: %w", err))
			}
			fmt.Fprintln(os.Stderr, "httpbench:", msg)
		}()
	}

	switch {
	case *overload:
		runOverload(*kbytes * 1024)
	case *chaosRun:
		runChaos(*kbytes * 1024)
	default:
		workers, err := parseInts(*workerList)
		if err != nil {
			fail(err)
		}
		if *noOmp {
			*ompThreads = 1
		}
		runFigure9(workers, *users, *reqs, *kbytes, *ompThreads)
	}
}

func runFigure9(workers []int, users, reqs, kbytes, ompThreads int) {
	fmt.Printf("httpbench: Evaluation B (Figure 9) — throughput (responses/sec) vs worker threads\n")
	fmt.Printf("users=%d  requests/user=%d  payload=%dKiB  omp=%d\n\n", users, reqs, kbytes, ompThreads)
	fmt.Printf("%-16s", "series \\ workers")
	for _, w := range workers {
		fmt.Printf("%10d", w)
	}
	fmt.Println()
	table, err := evaluation.Figure9(evaluation.EvalBConfig{
		Server: httpserver.Config{KernelBytes: kbytes * 1024},
		Users:  users, RequestsPerUser: reqs,
	}, workers, ompThreads)
	if err != nil {
		fail(err)
	}
	for _, series := range table {
		fmt.Printf("%-16s", series[0].Label())
		for _, r := range series {
			fmt.Printf("%10.2f", r.Throughput())
		}
		fmt.Printf("\n%-16s", "  p50/p99 (ms)")
		for _, r := range series {
			fmt.Printf(" %4.0f/%4.0f", msOf(r.Latency.Quantile(0.5)), msOf(r.Latency.Quantile(0.99)))
		}
		fmt.Println()
		// The counters behind benchmark/'s executor.* probes, from the widest sweep point:
		// how much work the dispatch path moved and how deep it queued.
		if st := series[len(series)-1].Sched; st.Submitted > 0 {
			fmt.Printf("%-16s submitted=%d completed=%d helped=%d rejected=%d peak=%d\n",
				"  sched", st.Submitted, st.Completed, st.Helped, st.Rejected, st.QueuePeak)
		}
	}
}

// runOverload offers 64 users × 8 requests to a Pyjama server of 2 workers —
// a load far beyond capacity — once without QoS (the seed's unbounded queue)
// and once with admission control (wait queue of 4, 100 ms per request), and
// reports throughput, shed rate, and the latency distribution of successful
// responses for each. It fails unless the admission-controlled row sheds and
// its p99 is below the unprotected row's.
func runOverload(kernelBytes int) {
	const workers, users, reqs = 2, 64, 8
	admit := &httpserver.QoSConfig{QueueLimit: 4, RequestTimeout: 100 * time.Millisecond}
	fmt.Printf("httpbench: overload scenario — %d users × %d reqs against %d workers (payload %dKiB)\n",
		users, reqs, workers, kernelBytes/1024)
	fmt.Printf("qos: queue=%d timeout=%v policy=%s\n\n", admit.QueueLimit, admit.RequestTimeout, admit)
	fmt.Printf("%-14s %8s %8s %8s %9s %10s %10s %10s\n",
		"series", "ok", "shed", "errors", "shedrate", "resp/sec", "p50(ms)", "p99(ms)")
	var rows []*evaluation.EvalBResult
	for _, qos := range []*httpserver.QoSConfig{nil, admit} {
		r, err := evaluation.RunEvalB(evaluation.EvalBConfig{
			Server: httpserver.Config{Mode: httpserver.Pyjama, Workers: workers, KernelBytes: kernelBytes, QoS: qos},
			Users:  users, RequestsPerUser: reqs,
		})
		if err != nil {
			fail(err)
		}
		errs := r.Errors + r.Timeouts
		fmt.Printf("%-14s %8d %8d %8d %8.1f%% %10.1f %10.1f %10.1f\n",
			r.Label(), r.OK, r.Shed, errs, 100*float64(r.Shed)/float64(r.OK+r.Shed+errs), r.Throughput(),
			msOf(r.Latency.Quantile(0.5)), msOf(r.Latency.Quantile(0.99)))
		rows = append(rows, r)
	}
	fmt.Printf("\nWithout qos every request queues (p99 grows with offered load); with qos\n")
	fmt.Printf("overflow is shed as 503s and the p99 of admitted requests stays bounded.\n")
	plain, guarded := rows[0], rows[1]
	if guarded.Shed == 0 || guarded.Latency.Quantile(0.99) >= plain.Latency.Quantile(0.99) {
		fail(fmt.Errorf("overload: the qos row shed %d with p99 %.1f ms against %.1f ms without qos; want sheds and a lower p99",
			guarded.Shed, msOf(guarded.Latency.Quantile(0.99)), msOf(plain.Latency.Quantile(0.99))))
	}
}

// runChaos is the failure drill: 8 users × 50 requests against 4 workers
// while every task kills its worker with probability 0.1, at most 20 times
// (the schedule is seeded via CHAOS_SEED, default 1337), against an
// unsupervised and a supervised Pyjama server. The unsupervised series loses
// workers for good — once the pool is empty every request wedges until the
// 250 ms client timeout, and only the stall watchdog notices; the supervised
// series respawns killed workers within its restart budget and keeps
// answering. It fails unless the supervised row sheds nothing and serves more
// than the unsupervised one.
func runChaos(kernelBytes int) {
	const (
		workers, users, reqs = 4, 8, 50
		rate, kills          = 0.1, 20
	)
	seed := chaos.SeedFromEnv(1337)
	fmt.Printf("httpbench: failure drill — kill rate %.0f%% (max %d) against %d workers, %d users × %d reqs, seed %d\n\n",
		100*rate, kills, workers, users, reqs, seed)
	fmt.Printf("%-18s %8s %8s %8s %9s %8s %9s %8s %10s\n",
		"series", "ok", "shed", "errors", "timeouts", "kills", "respawns", "stalls", "healthz")
	var rows []evaluation.HTTPLoad
	for _, restart := range []bool{false, true} {
		label := "pyjama"
		if restart {
			label += "+supervise"
		}
		var budget *supervise.Options
		if restart {
			budget = &supervise.Options{
				MaxRestarts:    2 * kills,
				Window:         time.Second,
				BackoffInitial: time.Millisecond,
				BackoffMax:     10 * time.Millisecond,
			}
		}
		inj := chaos.New(seed, chaos.Rule{Action: chaos.Kill, Rate: rate, Count: kills})
		srv := httpserver.New(httpserver.Config{
			Mode: httpserver.Pyjama, Workers: workers, KernelBytes: kernelBytes,
			Chaos: inj,
			Supervise: &httpserver.SuperviseConfig{
				Restart:          budget,
				WatchdogInterval: 20 * time.Millisecond,
				StallAfter:       200 * time.Millisecond,
			},
		})
		base, err := srv.Start()
		if err != nil {
			fail(err)
		}
		load := evaluation.DriveHTTP(base, users, reqs, 250*time.Millisecond)
		health, _, herr := httpserver.NewClientTimeout(base, time.Second).Healthz()
		if herr != nil {
			health = "unreachable"
		}
		var respawns int64
		if s := srv.Supervisor(); s != nil {
			respawns = s.Stats().Respawns
		}
		stalls := srv.Watchdog().Stalls()
		srv.Stop()
		fmt.Printf("%-18s %8d %8d %8d %9d %8d %9d %8d %10s\n",
			label, load.OK, load.Shed, load.Errors, load.Timeouts, inj.Injected(chaos.Kill), respawns, stalls, health)
		rows = append(rows, load)
	}
	fmt.Printf("\nUnsupervised, killed workers stay dead: the pool drains to zero, requests\n")
	fmt.Printf("wedge until the client gives up, and the watchdog reports the stall. With\n")
	fmt.Printf("supervision each death is repaired within the restart budget while the\n")
	fmt.Printf("surviving workers keep serving, so nothing is shed; /healthz reads degraded\n")
	fmt.Printf("until a restart window (1 s) passes without a kill, then ok.\n")
	unsupervised, supervised := rows[0], rows[1]
	if supervised.Shed != 0 || supervised.OK <= unsupervised.OK {
		fail(fmt.Errorf("chaos: the supervised row served %d and shed %d against %d served unsupervised; want no sheds and more served",
			supervised.OK, supervised.Shed, unsupervised.OK))
	}
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
