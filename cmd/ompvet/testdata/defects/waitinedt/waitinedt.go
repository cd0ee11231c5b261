// Package waitinedt seeds a blocking join on the event-dispatch thread: an
// InvokeLater block parks in Completion.Wait until a worker finishes.
package waitinedt

import (
	"repro/internal/executor"
	"repro/internal/gui"
)

func onClick(tk *gui.Toolkit, pool *executor.WorkerPool) {
	tk.InvokeLater(func() {
		done := pool.Post(func() {})
		done.Wait()
	})
}
