// Command edtbench regenerates Figures 7-8 of the paper: average event
// response time versus request load for each Java Grande kernel, comparing
// the six handler strategies (sequential, synchronous parallel,
// SwingWorker, ExecutorService, Pyjama async, Pyjama async parallel).
//
// The kernel size is calibrated so one sequential execution takes -handler
// on this machine (the paper's handlers are in the hundreds-of-milliseconds
// regime; the default here is smaller so a full sweep completes quickly —
// raise -handler and -events for a paper-scale run).
//
// Example:
//
//	edtbench -kernels crypt,series -rates 10,20,50,100 -events 40
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/evaluation"
	"repro/internal/kernels"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		kernelList   = flag.String("kernels", strings.Join(kernels.Names(), ","), "comma-separated kernel families")
		approachList = flag.String("approaches", joinApproaches(evaluation.Approaches()), "comma-separated handler strategies")
		rateList     = flag.String("rates", "10,20,30,40,50,60,70,80,90,100", "comma-separated request loads (events/sec)")
		events       = flag.Int("events", 30, "events fired per run")
		handler      = flag.Duration("handler", 10*time.Millisecond, "target sequential kernel duration (calibrated)")
		workers      = flag.Int("workers", 3, "background worker pool size")
		ompThreads   = flag.Int("omp", 3, "team size for the *parallel strategies")
		pattern      = flag.String("pattern", "constant", "arrival pattern: constant|poisson|burst")
		timeout      = flag.Duration("timeout", 5*time.Minute, "per-run timeout")
		figure1      = flag.Bool("figure1", false, "print the Figure 1 timelines (single- vs multi-threaded event processing) and exit")
		traceOut     = flag.String("trace", "", "capture causal spans into a Go execution trace file here (open with go tool trace)")
	)
	flag.Parse()

	if *traceOut != "" {
		stop, err := trace.StartFile(*traceOut)
		if err != nil {
			fail(fmt.Errorf("trace: %w", err))
		}
		defer func() {
			if err := stop(); err != nil {
				fail(fmt.Errorf("trace: %w", err))
			}
		}()
	}

	if *figure1 {
		printFigure1()
		return
	}

	pat, err := parsePattern(*pattern)
	if err != nil {
		fail(err)
	}
	rates, err := parseFloats(*rateList)
	if err != nil {
		fail(err)
	}
	var approaches []evaluation.Approach
	for _, a := range strings.Split(*approachList, ",") {
		approaches = append(approaches, evaluation.Approach(strings.TrimSpace(a)))
	}

	fmt.Printf("edtbench: Evaluation A (Figures 7-8) — avg response time (ms) vs request load\n")
	fmt.Printf("events/run=%d  handler target=%v  workers=%d  omp=%d  pattern=%s\n\n",
		*events, *handler, *workers, *ompThreads, pat)

	base := evaluation.EvalAConfig{
		Events: *events, Pattern: pat,
		Workers: *workers, OMPThreads: *ompThreads, Timeout: *timeout,
	}
	for _, kern := range strings.Split(*kernelList, ",") {
		base.Kernel = strings.TrimSpace(kern)
		size, rows, err := evaluation.SweepA(base, *handler, approaches, rates)
		if err != nil {
			fail(err)
		}
		fmt.Printf("== kernel %s (size %d, ~%v sequential) ==\n", base.Kernel, size, *handler)
		fmt.Printf("%-24s", "approach \\ load")
		for _, r := range rates {
			fmt.Printf("%10.0f", r)
		}
		fmt.Println()
		for i, a := range approaches {
			fmt.Printf("%-24s", a)
			for _, res := range rows[i] {
				fmt.Printf("%10.2f", float64(res.Response.Mean)/float64(time.Millisecond))
			}
			fmt.Println()
		}
		fmt.Println()
	}
}

// printFigure1 reproduces Figure 1: three requests under single-threaded
// (panel i) and multi-threaded (panel ii) event processing.
func printFigure1() {
	for _, multi := range []bool{false, true} {
		if multi {
			fmt.Println("\nFigure 1(ii): multi-threaded event processing — handlers overlap")
		} else {
			fmt.Println("Figure 1(i): single-threaded event processing — later requests queue")
		}
		recs, err := evaluation.RunFigure1(evaluation.Figure1Config{
			Events: 3, HandlerCost: 30 * time.Millisecond, Multithreaded: multi, Workers: 3,
		})
		if err != nil {
			fail(err)
		}
		fmt.Print(evaluation.RenderTimeline(recs, 60))
	}
}

func joinApproaches(as []evaluation.Approach) string {
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = string(a)
	}
	return strings.Join(parts, ",")
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parsePattern(s string) (workload.Pattern, error) {
	switch s {
	case "constant":
		return workload.Constant, nil
	case "poisson":
		return workload.Poisson, nil
	case "burst":
		return workload.Burst, nil
	default:
		return 0, fmt.Errorf("unknown pattern %q", s)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "edtbench: %v\n", err)
	os.Exit(1)
}
