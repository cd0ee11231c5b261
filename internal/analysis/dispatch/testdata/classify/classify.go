// Package classify is the dispatch classifier's table corpus: one function
// literal handed straight to each runtime entry point the table names.
package classify

import (
	"repro/internal/eventloop"
	"repro/internal/executor"
	"repro/internal/gui"
)

func deliveries(loop *eventloop.Loop, pool *executor.WorkerPool, tk *gui.Toolkit) {
	loop.Post(func() {})
	loop.PostLabeled("click", func() {})
	_ = loop.InvokeAndWait(func() {})
	pool.Post(func() {})
	tk.InvokeLater(func() {})
}
