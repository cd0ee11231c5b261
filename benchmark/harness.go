package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one set of inputs the benchmark runs. For every round the
// harness sets a fresh one up, warms it up with a fixed number of operations,
// calls run once and tears it down; run returns only after every operation it
// issued has completed.
type workload interface {
	// setup builds the system under test and generates inputs from seed.
	setup(seed int64) error
	// warmup runs a fixed count of operations (times scale) through the
	// measured path.
	warmup(rec *recorder, scale float64)
	// run drives load for d and records every operation in rec.
	run(d time.Duration, rec *recorder)
	// setTracer switches harness spans on (nil: off) between rounds.
	setTracer(t *tracer)
	// traceEvery is how many operations share one traced operation.
	traceEvery() uint64
	// lanes is how many goroutines record operations at once.
	lanes() int
	// counters returns the layers' cumulative public counters.
	counters() layerCounters
	// teardown stops everything it started and checks the final oracles.
	teardown() error
}

// edtProber is implemented by workloads that have an event-dispatch thread
// (a GUI EDT, a netloop dispatch loop): probe posts one tiny event to it and
// calls dispatched when that event is handled.
type edtProber interface {
	probe(dispatched func())
}

// layerCounters are cumulative readings of the layers' public stats.
type layerCounters struct {
	steals, helped, execQueuePeak, loopQueuePeak    int64
	readEvents, writeEvents, wakeups, partialWrites int64
	bytesWritten, dropped                           int64
}

// add accumulates what one round added between the readings before and
// after; queue peaks are high watermarks, so the largest is kept.
func (c *layerCounters) add(before, after layerCounters) {
	c.steals += after.steals - before.steals
	c.helped += after.helped - before.helped
	c.execQueuePeak = max(c.execQueuePeak, after.execQueuePeak)
	c.loopQueuePeak = max(c.loopQueuePeak, after.loopQueuePeak)
	c.readEvents += after.readEvents - before.readEvents
	c.writeEvents += after.writeEvents - before.writeEvents
	c.wakeups += after.wakeups - before.wakeups
	c.partialWrites += after.partialWrites - before.partialWrites
	c.bytesWritten += after.bytesWritten - before.bytesWritten
	c.dropped += after.dropped - before.dropped
}

// sampleCap is how many latency samples a round keeps, over all lanes; later
// operations only count. It bounds what the harness adds to the heap.
const sampleCap = 1 << 20

// recorder collects one round's operations. Each lane is appended to by one
// goroutine at a time; the counters are safe from any goroutine.
type recorder struct {
	lanes  [][]int64 // operation latencies, ns
	done   atomic.Int64
	failed atomic.Int64

	genLag  []int64 // open loop: how late each operation was issued, ns
	backlog int     // open loop: operations outstanding when the last was issued
}

func newRecorder(lanes int) *recorder {
	r := &recorder{lanes: make([][]int64, lanes), genLag: make([]int64, 0, 1<<12)}
	for i := range r.lanes {
		r.lanes[i] = make([]int64, 0, sampleCap/lanes)
	}
	return r
}

func (r *recorder) reset() {
	for i := range r.lanes {
		r.lanes[i] = r.lanes[i][:0]
	}
	r.done.Store(0)
	r.failed.Store(0)
	r.genLag = r.genLag[:0]
	r.backlog = 0
}

// ok records one correct operation and its latency.
func (r *recorder) ok(lane int, latNs int64) {
	if l := r.lanes[lane]; len(l) < cap(l) {
		r.lanes[lane] = append(l, latNs)
	}
	r.done.Add(1)
}

// fail records an operation that failed, was refused or gave a wrong result.
func (r *recorder) fail() {
	r.failed.Add(1)
	r.done.Add(1)
}

// sorted returns all lanes' latencies, sorted. The slice is the recorder's
// own when there is one lane, and valid until the next reset.
func (r *recorder) sorted() []int64 {
	out := r.lanes[0]
	for _, l := range r.lanes[1:] {
		out = append(out, l...)
	}
	slices.Sort(out)
	return out
}

const stallAfter = 10 * time.Second

// watchStall aborts the process if progress stops changing for stallAfter:
// a wait cycle between targets would otherwise hang the run for ever.
func watchStall(what string, progress *atomic.Int64) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		last, since := progress.Load(), time.Now()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			if cur := progress.Load(); cur != last {
				last, since = cur, time.Now()
			} else if time.Since(since) > stallAfter {
				fmt.Fprintf(os.Stderr, "benchmark: STALLED: no operation completed for %v during %s; goroutines:\n", stallAfter, what)
				pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
				os.Exit(3)
			}
		}
	}()
	return func() { close(quit); wg.Wait() }
}

const calibSteps = 4 << 20

var calibSink uint64

// calibrate times a fixed single-thread spin, so that a slow machine can be
// told from slow code. The best of three keeps a pre-empted spin out.
func calibrate() float64 {
	best := time.Duration(1 << 62)
	for rep := 0; rep < 3; rep++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < calibSteps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(t0); d < best {
			best = d
		}
		calibSink += x
	}
	return float64(best.Nanoseconds())
}

const probePeriod = 5 * time.Millisecond // 200 probe events per second

// prober posts tiny events at a fixed rate while a round runs and keeps
// their dispatch latencies.
type prober struct {
	mu     sync.Mutex
	lat    []int64
	closed bool
}

func (p *prober) run(w edtProber, quit <-chan struct{}) {
	tick := time.NewTicker(probePeriod)
	defer tick.Stop()
	for {
		select {
		case <-quit:
			return
		case <-tick.C:
		}
		t0 := time.Now()
		w.probe(func() {
			d := int64(time.Since(t0))
			p.mu.Lock()
			if !p.closed {
				p.lat = append(p.lat, d)
			}
			p.mu.Unlock()
		})
	}
}

// take ends collection and returns the sorted latencies; probes dispatched
// later are ignored.
func (p *prober) take() []int64 {
	p.mu.Lock()
	p.closed = true
	lat := p.lat
	p.mu.Unlock()
	slices.Sort(lat)
	return lat
}

// round is what one measured round produced.
type round struct {
	seconds    float64
	ok, failed int64
	samples    int     // latency samples the percentiles are taken over
	p50, p90   int64   // operation latency, ns
	tail       []int64 // the slowest samples (share keep of them), for pooled tails
	probe      []int64 // sorted, ns
	mallocs    uint64
	allocBytes uint64
	cpu        time.Duration
	genLag     []int64
	backlog    int
}

func (r *round) throughput() float64 { return float64(r.ok) / r.seconds }

func (r *round) perOp(v float64) float64 {
	if r.ok == 0 {
		return 0
	}
	return v / float64(r.ok)
}

// measureRound runs one round and keeps the share keep of its slowest
// latencies for the pooled tail.
func measureRound(name string, w workload, d time.Duration, rec *recorder, keep float64) round {
	rec.reset()
	stop := watchStall(name, &rec.done)
	defer stop()

	pr := &prober{lat: make([]int64, 0, 1<<12)}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	if ep, ok := w.(edtProber); ok {
		wg.Add(1)
		go func() { defer wg.Done(); pr.run(ep, quit) }()
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	w.run(d, rec)
	elapsed := time.Since(t0)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)

	close(quit)
	wg.Wait()
	failed := rec.failed.Load()
	lat := rec.sorted()
	return round{
		seconds:    elapsed.Seconds(),
		ok:         rec.done.Load() - failed,
		failed:     failed,
		samples:    len(lat),
		p50:        percentile(lat, 0.5),
		p90:        percentile(lat, 0.9),
		tail:       append([]int64(nil), lat[len(lat)-int(math.Ceil(keep*float64(len(lat)))):]...),
		probe:      pr.take(),
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		cpu:        cpu1 - cpu0,
		genLag:     append([]int64(nil), rec.genLag...),
		backlog:    rec.backlog,
	}
}

// metricValue is one metric of one workload: what the rounds come to (the
// best decile for a time, the median for a count: see bestDecile), the
// rounds it was taken over, their median and their range.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// result is everything one workload's process reports.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Skipped   string                 `json:"skipped,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Saturated bool                   `json:"saturated,omitempty"`
	Samples   string                 `json:"samples,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
}

func (r *result) set(name string, rounds ...float64) {
	d := defOf(name)
	v := metricValue{Unit: d.unit, Median: median(rounds), Min: slices.Min(rounds), Max: slices.Max(rounds), Rounds: rounds}
	v.Value = v.Median
	if d.timed {
		v.Value = bestDecile(rounds, d.higher)
	}
	r.Metrics[name] = v
}

// config selects what one process measures.
type config struct {
	workload string
	seed     int64
	rounds   int // measured rounds of a run, shared out over up to setUps set-ups
	roundDur time.Duration
	traced   bool
	spansDir string
	scale    float64 // scales the fixed iteration counts (warm-up, layer probes); 1 except in the smoke test
}

// runWorkload measures one workload in this process.
func runWorkload(cfg config) (*result, error) {
	var mk func(int) workload
	for _, d := range workloadDefs {
		if d.name == cfg.workload {
			mk = d.make
		}
	}
	if mk == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced, Metrics: make(map[string]metricValue)}
	nproc := runtime.GOMAXPROCS(0)
	m, err := measure(cfg, mk, nproc)
	if err == errSkipped {
		res.Skipped = "no reactor poller on this platform"
		res.Correct = true
		return res, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if err := res.report(m); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.traced {
		if err := res.reportTrace(m, cfg, nproc); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
	}
	if m.tearErr != nil {
		res.Correct = false
		res.Notes = append(res.Notes, "ORACLE FAILED: "+m.tearErr.Error())
	}
	return res, nil
}

// measurement is what the rounds of one run produced.
type measurement struct {
	setups     []float64 // seconds per set-up, warm-up included
	calib      []float64 // machine.calib_ns, taken before every set-up
	untraced   []round
	traced     []round
	tr         *tracer       // of the traced rounds
	counters   layerCounters // summed over the rounds; peaks are maxima
	gcCycles   uint32
	gcPauseNs  uint64
	goroutines int
	tearErr    error
}

// setUps is how many set-ups the rounds of an untraced run are shared out
// over.
const setUps = 5

// segment is a number of equal rounds measured back to back on one set-up.
type segment struct {
	rounds int
	d      time.Duration // of one round
	traced bool
}

// plan shares a run's rounds out over its set-ups. An untraced run is
// cfg.rounds equal rounds on up to setUps set-ups. A traced run spends the
// same time as a quarter untraced, a half traced, a quarter untraced, so that
// tracing overhead is a same-process ratio.
//
// Several set-ups give set-up time several samples, and they keep whatever a
// set-up happens to fix for its lifetime (which thread polls which socket,
// which worker owns which shard) from colouring a whole run.
func plan(cfg config) []segment {
	if cfg.traced {
		total := cfg.roundDur * time.Duration(cfg.rounds)
		part := func(d time.Duration, traced bool) segment {
			n := max(1, int(d/cfg.roundDur))
			return segment{n, d / time.Duration(n), traced}
		}
		return []segment{part(total/4, false), part(total/2, true), part(total/4, false)}
	}
	n := min(setUps, cfg.rounds)
	segs := make([]segment, n)
	for i := range segs {
		segs[i] = segment{rounds: cfg.rounds / n, d: cfg.roundDur}
		if i < cfg.rounds%n {
			segs[i].rounds++
		}
	}
	return segs
}

// measure runs the rounds of plan(cfg), every segment on a set-up of its own.
func measure(cfg config, mk func(int) workload, nproc int) (*measurement, error) {
	m := &measurement{}
	var rec *recorder
	segs := plan(cfg)
	// The hundredth of all samples beyond the pooled p99 may all lie in one
	// round, where they are as many hundredths of its samples as there are
	// rounds.
	total := 0
	for _, seg := range segs {
		total += seg.rounds
	}
	keep := min(1, float64(total)/100)
	for i, seg := range segs {
		m.calib = append(m.calib, calibrate())
		t0 := time.Now()
		w := mk(nproc)
		if err := w.setup(cfg.seed*1000 + int64(i)); err != nil {
			if err == errSkipped {
				return nil, err
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		if rec == nil {
			rec = newRecorder(w.lanes())
		}
		rec.reset()
		stop := watchStall(cfg.workload+" warm-up", &rec.done)
		w.warmup(rec, cfg.scale)
		stop()
		m.setups = append(m.setups, time.Since(t0).Seconds())
		if n := rec.failed.Load(); n > 0 {
			return nil, fmt.Errorf("%d operations failed during warm-up", n)
		}
		runtime.GC() // the previous set-up's garbage is not this one's to collect

		if seg.traced {
			m.tr = newTracer(w.traceEvery())
			w.setTracer(m.tr)
		}
		c0 := w.counters()
		var gc0, gc1 runtime.MemStats
		runtime.ReadMemStats(&gc0)
		for n := 0; n < seg.rounds; n++ {
			r := measureRound(cfg.workload, w, seg.d, rec, keep)
			if seg.traced {
				m.traced = append(m.traced, r)
			} else {
				m.untraced = append(m.untraced, r)
			}
		}
		runtime.ReadMemStats(&gc1)
		m.counters.add(c0, w.counters())
		m.gcCycles += gc1.NumGC - gc0.NumGC
		m.gcPauseNs += gc1.PauseTotalNs - gc0.PauseTotalNs
		m.goroutines = max(m.goroutines, runtime.NumGoroutine())
		if err := w.teardown(); err != nil && m.tearErr == nil {
			m.tearErr = err
		}
	}
	return m, nil
}

// report turns the rounds into metrics: the end-to-end ones, which are taken
// over the untraced rounds, and the counters and diagnostics, which cost
// nothing to collect and so are reported after every run.
func (res *result) report(m *measurement) error {
	res.set("setup_s", m.setups...)
	col := func(f func(*round) float64) []float64 {
		out := make([]float64, len(m.untraced))
		for i := range m.untraced {
			out[i] = f(&m.untraced[i])
		}
		return out
	}
	res.set("throughput_ops_s", col((*round).throughput)...)
	res.set("latency_p50_us", col(func(r *round) float64 { return us(r.p50) })...)
	res.set("allocs_per_op", col(func(r *round) float64 { return r.perOp(float64(r.mallocs)) })...)
	res.set("alloc_bytes_per_op", col(func(r *round) float64 { return r.perOp(float64(r.allocBytes)) })...)
	res.set("cpu_us_per_op", col(func(r *round) float64 { return r.perOp(float64(r.cpu.Nanoseconds()) / 1e3) })...)

	var okAll, failedAll int64
	var lat, probe tailPool
	var genLag []int64
	minBeyond := int(^uint(0) >> 1)
	for i := range m.untraced {
		r := &m.untraced[i]
		lat.add(r.samples, r.tail)
		probe.add(len(r.probe), r.probe)
		genLag = append(genLag, r.genLag...)
		minBeyond = min(minBeyond, r.samples-r.samples*9/10)
		okAll += r.ok
		failedAll += r.failed
	}
	for i := range m.traced {
		okAll += m.traced[i].ok
		failedAll += m.traced[i].failed
	}
	res.Attempted, res.Failed = okAll+failedAll, failedAll
	if res.Attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	res.Correct = failedAll == 0
	res.set("ok_ops_ratio", float64(okAll)/float64(res.Attempted))

	c := m.counters
	kop := float64(okAll) / 1e3
	perKop := func(n int64) float64 {
		if kop == 0 {
			return 0
		}
		return float64(n) / kop
	}
	res.set("executor.steals_per_kop", perKop(c.steals))
	res.set("executor.helped_per_kop", perKop(c.helped))
	res.set("executor.queue_peak", float64(c.execQueuePeak))
	res.set("eventloop.queue_peak", float64(c.loopQueuePeak))
	res.set("reactor.read_events_per_kop", perKop(c.readEvents))
	res.set("reactor.write_events_per_kop", perKop(c.writeEvents))
	res.set("reactor.wakeups_per_kop", perKop(c.wakeups))
	res.set("reactor.partial_writes", float64(c.partialWrites))
	res.set("reactor.bytes_written_per_op", perKop(c.bytesWritten)/1e3)
	res.set("netloop.dropped", float64(c.dropped))

	slices.Sort(genLag)
	res.set("workload.gen_lag_p99_us", us(percentile(genLag, 0.99)))
	res.set("workload.backlog_ops", col(func(r *round) float64 { return float64(r.backlog) })...)
	res.set("edt_probe_p90_us", col(func(r *round) float64 { return us(percentile(r.probe, 0.9)) })...)
	res.set("latency_p90_us", col(func(r *round) float64 { return us(r.p90) })...)
	p99, beyond := lat.p99()
	res.set("tail.latency_p99_us", us(p99))
	res.set("tail.latency_max_us", us(lat.max()))
	pp99, _ := probe.p99()
	res.set("tail.edt_probe_p99_us", us(pp99))
	res.set("proc.rss_peak_mib", rssPeakMiB())
	res.set("proc.gc_cycles", float64(m.gcCycles))
	res.set("proc.gc_pause_total_ms", float64(m.gcPauseNs)/1e6)
	res.set("proc.goroutines", float64(m.goroutines))
	res.set("machine.calib_ns", m.calib...)
	tp := res.Metrics["throughput_ops_s"]
	res.set("round.spread_ratio", (tp.Max-tp.Min)/tp.Value)
	res.Samples = fmt.Sprintf("%d latency samples over %d rounds, at least %d beyond p90 in every round, %d beyond the pooled p99",
		lat.total, len(m.untraced), minBeyond, beyond)

	// An open loop that ends its rounds with more than a twentieth of the
	// round's events (and more than a handful) still outstanding is not
	// keeping up with its schedule.
	issued := float64(len(genLag)) / float64(len(m.untraced))
	if res.Metrics["workload.backlog_ops"].Value > max(issued/20, 8) {
		res.Saturated = true
		res.Notes = append(res.Notes, "SATURATED: the open loop ends its rounds with a backlog; its latencies are not steady-state latencies")
	}
	return nil
}

// reportTrace adds what only the traced pass collects: tracing overhead,
// span medians, the span file, and the layer probes.
func (res *result) reportTrace(m *measurement, cfg config, nproc int) error {
	traced := make([]float64, len(m.traced))
	for i := range m.traced {
		traced[i] = m.traced[i].throughput()
	}
	res.set("trace.overhead_ratio", res.Metrics["throughput_ops_s"].Value/bestDecile(traced, true))
	p50 := m.tr.p50s()
	for k := spOp + 1; k < numSpanKinds; k++ {
		res.set("span."+spanNames[k]+"_us", p50[k])
	}
	path, err := m.tr.write(cfg.spansDir, cfg.workload)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d spans of every %d. operation written to %s (%d dropped)",
		len(m.tr.recorded()), m.tr.every, path, m.tr.dropped.Load()))
	notes, err := runProbes(res, nproc, cfg.scale)
	res.Notes = append(res.Notes, notes...)
	return err
}
