package executor

import "repro/internal/gid"

// newIdleHookedPool starts a pool of one whose worker calls hook every time a
// pop finds the queue empty, before it looks at stopped.
func newIdleHookedPool(hook func()) *WorkerPool {
	p := newPool("hooked", 0, &gid.Registry{}, nil)
	p.idleHook = hook
	p.Grow(1)
	return p
}
