// Package sequentialbaseline is the Sequential baseline's shape: the kernel
// blocks the event-dispatch thread, but the handler closure is returned from
// a factory and posted dynamically, so no dispatch site classifies it. The
// passes are known to miss it (DESIGN §11).
package sequentialbaseline

import (
	"time"

	"repro/internal/gui"
)

func handlerFor(status *gui.Label) func() {
	return func() {
		time.Sleep(time.Millisecond)
		status.SetText("done")
	}
}

func onEvent(tk *gui.Toolkit) {
	status := tk.NewLabel("status")
	tk.InvokeLater(handlerFor(status))
}
