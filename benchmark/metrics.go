package main

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; the smoke test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	timed  bool    // a time: the rounds come to their best decile, not their median
	bound  float64 // end-to-end only: share of the baseline value by which it may worsen
}

// endToEnd are the metrics a user of the system would see. Each is taken
// over the rounds of one run (setup_s: over its set-ups), measured with
// tracing off. README.md gives the spreads the bounds rest on.
var endToEnd = []metricDef{
	{name: "setup_s", timed: true, unit: "s", bound: 0.25},
	{name: "throughput_ops_s", timed: true, unit: "1/s", higher: true, bound: 0.25},
	{name: "latency_p50_us", timed: true, unit: "us", bound: 0.25},
	{name: "allocs_per_op", unit: "count", bound: 0.03},
	{name: "alloc_bytes_per_op", unit: "B", bound: 0.03},
	{name: "cpu_us_per_op", timed: true, unit: "us", bound: 0.25},
	{name: "ok_ops_ratio", unit: "ratio", higher: true, bound: 0.001},
}

// perLayer are collected in the traced pass only (counters and diagnostics
// are also printed after an untraced run, where they cost nothing). A metric
// that does not apply to a workload is reported as 0 there.
var perLayer = []metricDef{
	// Layer probes: tight loops over a layer's public functions.
	{name: "gid.current_ns", unit: "ns"},
	{name: "executor.chunkqueue_ns", unit: "ns"},
	{name: "executor.post_ns", unit: "ns"},
	{name: "executor.post_allocs", unit: "count"},
	{name: "executor.postwait_ns", unit: "ns"},
	{name: "executor.postwait_allocs", unit: "count"},
	{name: "core.invoke_wait_ns", unit: "ns"},
	{name: "core.invoke_wait_allocs", unit: "count"},
	{name: "core.invoke_nowait_ns", unit: "ns"},
	{name: "core.invoke_nowait_allocs", unit: "count"},
	{name: "core.invoke_nameas_ns", unit: "ns"},
	{name: "core.invoke_nameas_allocs", unit: "count"},
	{name: "core.invoke_await_ns", unit: "ns"},
	{name: "core.invoke_await_allocs", unit: "count"},
	{name: "core.await_helps_per_op", unit: "count", higher: true},
	{name: "eventloop.post_ns", unit: "ns"},
	{name: "eventloop.post_allocs", unit: "count"},
	{name: "eventloop.invokeandwait_ns", unit: "ns"},
	{name: "eventloop.invokeandwait_allocs", unit: "count"},
	{name: "gui.settext_ns", unit: "ns"},
	{name: "omp.forkjoin_ns", unit: "ns"},
	{name: "kernels.crypt_seq_ns_per_kib", unit: "ns"},
	{name: "kernels.crypt_par_ns_per_kib", unit: "ns"},
	{name: "reactor.echo_rtt_ns", unit: "ns"},
	{name: "reactor.echo_allocs", unit: "count"},
	{name: "reactor.write_ns", unit: "ns"},
	{name: "netloop.line_rtt_ns", unit: "ns"},
	{name: "netloop.line_allocs", unit: "count"},
	{name: "netloop.send_ns", unit: "ns"},
	{name: "httpserver.request_ns", unit: "ns"},
	{name: "httpserver.request_allocs", unit: "count"},
	{name: "httpserver.jetty_request_ns", unit: "ns"},
	{name: "httpserver.pyjama_over_jetty", unit: "ratio"},

	// Harness spans: p50 over the sampled operations of the traced round.
	{name: "span.edt_queue_us", unit: "us"},
	{name: "span.edt_handler_us", unit: "us"},
	{name: "span.invoke_call_nowait_us", unit: "us"},
	{name: "span.invoke_call_await_us", unit: "us"},
	{name: "span.invoke_call_nameas_us", unit: "us"},
	{name: "span.worker_queue_us", unit: "us"},
	{name: "span.worker_body_us", unit: "us"},
	{name: "span.update_queue_us", unit: "us"},
	{name: "span.join_wait_us", unit: "us"},
	{name: "span.http_request_small_us", unit: "us"},
	{name: "span.http_request_large_us", unit: "us"},
	{name: "span.client_write_us", unit: "us"},
	{name: "span.loop_queue_us", unit: "us"},
	{name: "span.handler_us", unit: "us"},
	{name: "span.send_call_us", unit: "us"},
	{name: "span.first_delivery_us", unit: "us"},
	{name: "span.last_delivery_us", unit: "us"},
	{name: "trace.overhead_ratio", unit: "ratio"},

	// Counters read from the layers' public stats at the same boundaries.
	{name: "executor.steals_per_kop", unit: "count"},
	{name: "executor.helped_per_kop", unit: "count"},
	{name: "executor.queue_peak", unit: "count"},
	{name: "eventloop.queue_peak", unit: "count"},
	{name: "reactor.read_events_per_kop", unit: "count"},
	{name: "reactor.write_events_per_kop", unit: "count"},
	{name: "reactor.wakeups_per_kop", unit: "count"},
	{name: "reactor.partial_writes", unit: "count"},
	{name: "reactor.bytes_written_per_op", unit: "B"},
	{name: "netloop.dropped", unit: "count"},

	// Diagnostics of the run itself.
	{name: "workload.gen_lag_p99_us", unit: "us"},
	{name: "workload.backlog_ops", unit: "count"},
	{name: "edt_probe_p90_us", timed: true, unit: "us"},
	{name: "latency_p90_us", timed: true, unit: "us"},
	{name: "tail.latency_p99_us", unit: "us"},
	{name: "tail.latency_max_us", unit: "us"},
	{name: "tail.edt_probe_p99_us", unit: "us"},
	{name: "proc.rss_peak_mib", unit: "MiB"},
	{name: "proc.gc_cycles", unit: "count"},
	{name: "proc.gc_pause_total_ms", unit: "ms"},
	{name: "proc.goroutines", unit: "count"},
	{name: "machine.calib_ns", unit: "ns"},
	{name: "round.spread_ratio", unit: "ratio"},
}

// defOf returns the declaration of a metric; reporting an undeclared metric
// is a bug.
func defOf(name string) metricDef {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d
			}
		}
	}
	panic("benchmark: metric " + name + " is not declared in metrics.go")
}

// workloadDefs names the workloads in the order they run. BENCHMARK.json
// lists those with gated set: README.md says why not all.
var workloadDefs = []struct {
	name  string
	gated bool
	why   string
	make  func(nproc int) workload
}{
	{"edt_dispatch", true, "closed loop of tiny handlers in all four Table I modes, so gid/executor/core/eventloop cost is undiluted",
		func(n int) workload { return newEDTWorkload(n, false) }},
	{"gui_kernels", true, "open loop at 100 events/s of the Figure-6 pattern around a 6 ms Crypt kernel: the runtime does almost none of the work, so dispatch-path changes must predict no change",
		func(n int) workload { return newEDTWorkload(n, true) }},
	{"http_encrypt", true, "closed loop of keep-alive clients against the virtual-target HTTP server, 75% 1 KiB and 25% 256 KiB: the round-trip use of core.Invoke(Wait) and worker park/unpark",
		func(n int) workload { return newHTTPWorkload(n) }},
	{"chat_fanout", false, "netloop on the reactor, 8 rooms x 16 members, each room a closed loop: one read fans into 16 writes, so the write path of reactor/netloop dominates",
		func(int) workload { return newChatWorkload(true) }},
	{"chat_echo", true, "netloop on the reactor, 8 connections, one 64-byte line answered to its sender only: read, loop post, handler, one write, the per-message path of reactor/netloop",
		func(int) workload { return newChatWorkload(false) }},
}
