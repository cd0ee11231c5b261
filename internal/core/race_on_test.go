//go:build race

package core

// raceEnabled reports that the race detector is instrumenting this build: it
// allocates on its own account, so allocation budgets cannot be checked.
const raceEnabled = true
