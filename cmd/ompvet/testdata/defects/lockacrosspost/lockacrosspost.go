// Package lockacrosspost seeds a mutex held on the event-dispatch thread
// across a dispatch to the worker pool.
package lockacrosspost

import (
	"sync"

	"repro/internal/executor"
	"repro/internal/gui"
)

func onClick(tk *gui.Toolkit, pool *executor.WorkerPool) {
	var mu sync.Mutex
	tk.InvokeLater(func() {
		mu.Lock()
		pool.Post(func() {})
		mu.Unlock()
	})
}
