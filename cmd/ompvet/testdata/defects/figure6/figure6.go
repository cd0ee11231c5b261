// Package figure6 is the clean control: the paper's Figure 6 pattern, once
// through the runtime API and once as directives. A button handler offloads
// the work with nowait, and the worker block re-enters the EDT before it
// touches a widget.
package figure6

import (
	"repro/internal/core"
	"repro/internal/gui"
)

func setup(tk *gui.Toolkit, rt *core.Runtime) {
	rt.RegisterEDT("edt", tk.EDT())
	rt.CreateWorker("worker", 2)
	status := tk.NewLabel("status")
	tk.NewButton("go", func() {
		status.SetText("Started EDT handling")
		rt.Invoke("worker", core.Nowait, func() {
			compute()
			rt.Invoke("edt", core.Wait, func() {
				status.SetText("Finished!")
			})
		})
	})
}

func compute() {}

func show(string) {}

func buttonOnClick() {
	show("Started EDT handling")
	//#omp target virtual(worker) nowait
	{
		compute()
		//#omp target virtual(edt)
		{
			show("Finished!")
		}
	}
}
