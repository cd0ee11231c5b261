// Package joinonself seeds a self-wait through a helper: a block scheduled
// on render under tag "phase" calls joinOn(rt, "phase"), which waits for
// blocks only render's own pool can run.
package joinonself

import "repro/internal/core"

func joinOn(rt *core.Runtime, tag string) {
	rt.WaitTag(tag)
}

func phases(rt *core.Runtime) {
	rt.InvokeNamed("render", "phase", func() {
		joinOn(rt, "phase")
	})
}
