// Command benchmark is the repository's one benchmark: five workloads, seven
// end-to-end metrics and per-layer probes, spans and counters, described in
// README.md and declared in ../BENCHMARK.json.
//
//	bash benchmark/run.sh -workload edt_dispatch -seed 1 -seconds 28 -trace 0
//	bash benchmark/run.sh -seed 1 -out a.json          # every workload, one process each
//	bash benchmark/run.sh -seed 1 -trace 1 -out a.json # ... followed by the traced pass
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

var epoch = time.Now()

// nanotime is the monotonic clock every latency and span is taken with.
func nanotime() int64 { return int64(time.Since(epoch)) }

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload in this process (default: every workload, one process each)")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 28, "measured time of one run, split into -rounds equal rounds")
		rounds       = flag.Int("rounds", 0, "rounds per run (default: one per second); a time is the best decile over them, a count the median")
		trace        = flag.Int("trace", 0, "1: the traced pass (harness spans, layer probes), which reports the per-layer metrics")
		out          = flag.String("out", "", "also write every metric as JSON to this file")
		spans        = flag.String("spans", "benchmark/out", "directory for <workload>.spans.json and per-workload result files")
		compare      = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 if a metric got worse")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: " + strings.Join(flag.Args(), " "))
	}
	if *rounds == 0 {
		*rounds = max(1, int(*seconds+0.5))
	}
	if *seconds <= 0 || *rounds < 1 {
		fatal("-seconds and -rounds must be positive")
	}
	cfg := config{
		workload: *workloadName,
		seed:     *seed,
		rounds:   *rounds,
		roundDur: time.Duration(*seconds * float64(time.Second) / float64(*rounds)),
		traced:   *trace != 0,
		spansDir: *spans,
		scale:    1,
	}
	if cfg.workload != "" {
		os.Exit(runOne(cfg, *out))
	}
	os.Exit(runAll(cfg, *out))
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(2)
}

// report is the content of an -out file.
type report struct {
	Fingerprint map[string]string  `json:"fingerprint"`
	Workloads   map[string]*result `json:"workloads"`
	Traced      map[string]*result `json:"traced,omitempty"`
}

// driverLine is the last line of a single-workload run's standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload in this process, prints every metric as
// "workload metric value unit" and, last, one JSON object: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func runOne(cfg config, out string) int {
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if res.Skipped != "" {
		fmt.Printf("%s skipped: %s\n", res.Workload, res.Skipped)
	}
	printResult(res)
	if out != "" {
		rep := report{Fingerprint: fingerprint(cfg.seed, res), Workloads: map[string]*result{}}
		if cfg.traced {
			rep.Traced = map[string]*result{res.Workload: res}
		} else {
			rep.Workloads[res.Workload] = res
		}
		if err := writeJSON(out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if res.Skipped != "" {
		return 0
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverMetric{}}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			m.Unit = d.unit // does not apply to this workload
		}
		line.Metrics[d.name] = driverMetric{Value: m.Value, Unit: m.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(buf))
	if !res.Correct {
		return 1
	}
	return 0
}

func printResult(res *result) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			switch {
			case !ok:
			case len(m.Rounds) > 1:
				fmt.Printf("%s %s %.6g %s  (median %.6g min %.6g max %.6g over %d)\n", res.Workload, d.name, m.Value, m.Unit, m.Median, m.Min, m.Max, len(m.Rounds))
			default:
				fmt.Printf("%s %s %.6g %s\n", res.Workload, d.name, m.Value, m.Unit)
			}
		}
	}
	if res.Samples != "" {
		fmt.Printf("%s # %s\n", res.Workload, res.Samples)
	}
	for _, n := range res.Notes {
		fmt.Printf("%s # %s\n", res.Workload, n)
	}
	fmt.Printf("%s # attempted %d failed %d correct %v\n", res.Workload, res.Attempted, res.Failed, res.Correct)
}

// runAll runs every workload in a process of its own, so that one
// workload's heap and goroutines do not colour the next one's numbers.
func runAll(cfg config, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err.Error())
	}
	if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
		fatal(err.Error())
	}
	rep := report{Workloads: map[string]*result{}}
	if cfg.traced {
		rep.Traced = map[string]*result{}
	}
	code := 0
	passes := []int{0}
	if cfg.traced {
		passes = append(passes, 1)
	}
	for _, traced := range passes {
		for _, d := range workloadDefs {
			part := fmt.Sprintf("%s/%s.trace%d.json", cfg.spansDir, d.name, traced)
			cmd := exec.Command(self,
				"-workload", d.name, "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.roundDur.Seconds()*float64(cfg.rounds)), "-rounds", fmt.Sprint(cfg.rounds),
				"-trace", fmt.Sprint(traced), "-spans", cfg.spansDir, "-out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", d.name, err)
				code = 1
			}
			var one report
			if buf, err := os.ReadFile(part); err == nil && json.Unmarshal(buf, &one) == nil {
				rep.Fingerprint = one.Fingerprint
				for k, v := range one.Workloads {
					rep.Workloads[k] = v
				}
				for k, v := range one.Traced {
					rep.Traced[k] = v
				}
			}
		}
	}
	if out == "" {
		buf, _ := json.MarshalIndent(rep, "", " ")
		fmt.Println(string(buf))
		return code
	}
	if err := writeJSON(out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return code
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// fingerprint identifies the machine and build a result was taken on.
func fingerprint(seed int64, res *result) map[string]string {
	fp := map[string]string{
		"commit":     "unknown",
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"kernel":     "unknown",
		"seed":       fmt.Sprint(seed),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	if m, ok := res.Metrics["machine.calib_ns"]; ok {
		fp["machine.calib_ns"] = fmt.Sprintf("%.0f", m.Value)
	}
	if buf, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp["kernel"] = strings.TrimSpace(string(buf))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if buf, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp["commit"] = strings.TrimSpace(string(buf))
	}
	return fp
}
