//go:build !race

// Package raceflag tells a test whether the race detector is instrumenting
// the build: it allocates on its own account and skews timings, so allocation
// budgets and performance-shape assertions skip themselves under it.
package raceflag

const Enabled = false
