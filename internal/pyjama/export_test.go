package pyjama

import "repro/internal/core"

// SetRuntime replaces the process-wide runtime and returns the previous one,
// so each test runs on a runtime of its own.
func SetRuntime(rt *core.Runtime) *core.Runtime {
	mu.Lock()
	defer mu.Unlock()
	prev := std
	std = rt
	return prev
}

// Reset replaces the default runtime with a fresh one, shutting down the
// previous runtime's owned workers.
func Reset() {
	old := SetRuntime(core.NewRuntime(nil))
	old.Shutdown()
}
