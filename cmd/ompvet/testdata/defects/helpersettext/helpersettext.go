// Package helpersettext seeds a widget mutation two helper frames below a
// worker block: WorkerPool.Post runs setStatus, which calls renderStatus,
// which calls Label.SetText off the event-dispatch thread.
package helpersettext

import (
	"repro/internal/executor"
	"repro/internal/gui"
)

func setStatus(l *gui.Label, s string) { renderStatus(l, s) }

func renderStatus(l *gui.Label, s string) { l.SetText(s) }

func onClick(tk *gui.Toolkit, pool *executor.WorkerPool) {
	status := tk.NewLabel("status")
	pool.Post(func() {
		setStatus(status, "working")
	})
}
