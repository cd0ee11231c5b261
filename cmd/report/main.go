// Command report regenerates the complete experimental report — every
// figure of the paper plus this reproduction's extensions — as Markdown on
// stdout. It is the one-command path from a fresh checkout to an
// EXPERIMENTS.md-style document:
//
//	go run ./cmd/report > report.md            # quick (CI-scale) run
//	go run ./cmd/report -scale full > report.md
//
// The quick scale completes in roughly a minute on two cores; full runs
// the Evaluation A sweep at paper-like loads and takes several minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/evaluation"
	"repro/internal/gid"
	"repro/internal/httpserver"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

type scaleCfg struct {
	handler   time.Duration
	events    int
	rates     []float64
	workersB  []int
	usersB    int
	reqsB     int
	kbytesB   int
	clientsC  int
	messagesC int
}

func scales(name string) (scaleCfg, error) {
	switch name {
	case "quick":
		return scaleCfg{
			handler: 8 * time.Millisecond, events: 15,
			rates:    []float64{20, 60, 100},
			workersB: []int{1, 2, 4}, usersB: 16, reqsB: 2, kbytesB: 32,
			clientsC: 4, messagesC: 6,
		}, nil
	case "full":
		return scaleCfg{
			handler: 20 * time.Millisecond, events: 30,
			rates:    workload.Loads(),
			workersB: []int{1, 2, 4, 8, 16}, usersB: 50, reqsB: 3, kbytesB: 128,
			clientsC: 8, messagesC: 12,
		}, nil
	default:
		return scaleCfg{}, fmt.Errorf("unknown scale %q (quick|full)", name)
	}
}

func main() {
	scaleName := flag.String("scale", "quick", "quick or full")
	flag.Parse()
	sc, err := scales(*scaleName)
	if err != nil {
		fail(err)
	}

	fmt.Printf("# Reproduction report (%s scale)\n\ngenerated %s\n", *scaleName,
		time.Now().Format(time.RFC3339))

	figure1()
	cryptSize := figures78(sc)
	figure9(sc)
	evalC(sc, cryptSize)
	spanTrees()
}

func figure1() {
	fmt.Println("\n## Figure 1 — single- vs multi-threaded event processing")
	for _, multi := range []bool{false, true} {
		recs, err := evaluation.RunFigure1(evaluation.Figure1Config{
			Events: 3, HandlerCost: 20 * time.Millisecond, Multithreaded: multi, Workers: 3,
		})
		if err != nil {
			fail(err)
		}
		mode := "single-threaded (panel i)"
		if multi {
			mode = "multi-threaded (panel ii)"
		}
		fmt.Printf("\n%s:\n\n```\n%s```\n", mode, evaluation.RenderTimeline(recs, 56))
	}
}

// figures78 prints one table per paper kernel and returns the calibrated
// crypt size, which the netloop extension reuses for its handler.
func figures78(sc scaleCfg) (cryptSize int) {
	fmt.Println("\n## Figures 7-8 — response time (ms) vs request load")
	for _, kern := range kernels.Names() {
		size, rows, err := evaluation.SweepA(evaluation.EvalAConfig{Kernel: kern, Events: sc.events},
			sc.handler, evaluation.Approaches(), sc.rates)
		if err != nil {
			fail(err)
		}
		if kern == "crypt" {
			cryptSize = size
		}
		fmt.Printf("\n### %s (size %d)\n", kern, size)
		tableHead("approach \\ load", sc.rates)
		for i, a := range evaluation.Approaches() {
			fmt.Printf("| %s |", a)
			for _, res := range rows[i] {
				fmt.Printf(" %.1f |", float64(res.Response.Mean)/float64(time.Millisecond))
			}
			fmt.Println()
		}
	}
	return cryptSize
}

// tableHead prints a Markdown table's header row and the rule under it.
func tableHead[T any](corner string, cols []T) {
	fmt.Printf("\n| %s |", corner)
	for _, c := range cols {
		fmt.Printf(" %v |", c)
	}
	fmt.Printf("\n|---|%s\n", strings.Repeat("---|", len(cols)))
}

func figure9(sc scaleCfg) {
	fmt.Println("\n## Figure 9 — HTTP throughput (responses/sec) vs worker threads")
	tableHead("series \\ workers", sc.workersB)
	table, err := evaluation.Figure9(evaluation.EvalBConfig{
		Server: httpserver.Config{KernelBytes: sc.kbytesB * 1024},
		Users:  sc.usersB, RequestsPerUser: sc.reqsB,
	}, sc.workersB, 4)
	if err != nil {
		fail(err)
	}
	var chartLabels []string
	var chartValues []float64
	for _, series := range table {
		fmt.Printf("| %s |", series[0].Label())
		best := 0.0
		for _, r := range series {
			fmt.Printf(" %.1f |", r.Throughput())
			best = max(best, r.Throughput())
		}
		fmt.Println()
		chartLabels = append(chartLabels, series[0].Label())
		chartValues = append(chartValues, best)
	}
	fmt.Printf("\npeak throughput per series:\n\n```\n%s```\n",
		metrics.BarChart(chartLabels, chartValues, " r/s", 40))
}

func evalC(sc scaleCfg, cryptSize int) {
	fmt.Println("\n## Extension — framework universality (netloop message server)")
	fmt.Println("\n| handler | round-trip mean | round-trip p90 | dispatch busy mean |")
	fmt.Println("|---|---|---|---|")
	for _, offload := range []bool{false, true} {
		res, err := evaluation.RunEvalC(evaluation.EvalCConfig{
			Kernel: "crypt", KernelSize: cryptSize,
			Offload: offload, Workers: 4,
			Clients: sc.clientsC, MessagesPerClient: sc.messagesC,
		})
		if err != nil {
			fail(err)
		}
		name := "inline dispatch"
		if offload {
			name = "pyjama offload"
		}
		fmt.Printf("| %s | %v | %v | %v |\n", name,
			res.RoundTrip.Mean.Round(time.Microsecond),
			res.RoundTrip.P90.Round(time.Microsecond),
			res.DispatchBusy.Mean.Round(time.Microsecond))
	}
}

// spanTrees demonstrates the causal-span tracer: a small two-target scenario
// (nested invoke, inline fast path, await barrier with helping) is captured
// into a trace ring and rendered as the reconstructed span tree plus its
// aggregate summary — the spans `httpbench -trace` writes as a Go execution trace.
func spanTrees() {
	fmt.Println("\n## Extension — causal span trace of one dispatch chain")
	buf := trace.NewBuffer(4096)
	defer trace.Use(buf)()

	var reg gid.Registry
	rt := core.NewRuntime(&reg)
	defer rt.Shutdown()
	alpha, err := rt.CreateWorker("alpha", 1)
	if err != nil {
		fail(err)
	}
	if _, err := rt.CreateWorker("beta", 2); err != nil {
		fail(err)
	}

	_, err = rt.Invoke("alpha", core.Wait, func() {
		// Inline fast path: we are already on alpha.
		_, _ = rt.Invoke("alpha", core.Wait, func() {}) //ompvet:ignore blockguard same-target wait is the Algorithm 1 inline fast path, it cannot block
		// Await barrier: help a queued alpha task while beta computes.
		helped := make(chan struct{})
		go func() { alpha.Post(func() { close(helped) }) }()
		_, _ = rt.Invoke("beta", core.Await, func() {
			<-helped
			time.Sleep(2 * time.Millisecond)
		})
	})
	if err != nil {
		fail(err)
	}

	tree := trace.BuildTree(buf.Snapshot())
	fmt.Printf("\n```\n%s```\n", tree.String())
	fmt.Printf("\n```\n%s```\n", tree.Summarize())
	fmt.Println("\nCapture the same spans from a live run as a Go execution trace with")
	fmt.Println("`httpbench -trace out.trace` and open it with `go tool trace out.trace`; scrape")
	fmt.Println("per-target histograms from the server's `/metrics` endpoint in Prometheus text format.")
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "report: %v\n", err)
	os.Exit(1)
}
