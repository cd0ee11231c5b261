// Package nestedcounter seeds a cross-context write: a counter declared in
// an EDT block is incremented by a worker block nested inside it.
package nestedcounter

import (
	"repro/internal/executor"
	"repro/internal/gui"
)

func onClick(tk *gui.Toolkit, pool *executor.WorkerPool) {
	tk.InvokeLater(func() {
		clicks := 0
		pool.Post(func() {
			clicks++
		})
		_ = clicks
	})
}
