//go:build !unix

package main

import "time"

// Without getrusage, cpu_us_per_op and proc.rss_peak_mib read 0.
func cpuTime() time.Duration { return 0 }

func rssPeakMiB() float64 { return 0 }
