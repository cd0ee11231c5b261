package wait

import "repro/internal/core"

// directiveSelfWait seeds the same self-loop through //#omp comments: the
// wait(chunks) directive executes inside the very block that name_as(chunks)
// schedules on encoder.
func directiveSelfWait(rt *core.Runtime) {
	//#omp target virtual(encoder) name_as(chunks)
	{
		//#omp wait(chunks) // want `target "encoder" waits on tag "chunks" whose blocks are scheduled on "encoder" itself`
		_ = rt
	}
}

// directiveClean is the legitimate pipeline shape: compute waits on a tag
// scheduled on a different target, and no target ever waits back.
func directiveClean(rt *core.Runtime) {
	//#omp target virtual(io) name_as(load)
	{
		_ = rt
	}
	//#omp target virtual(compute)
	{
		//#omp wait(load)
		_ = rt
	}
}

// directiveUnderProse: the misspelt tag is reported at the wait directive
// itself, not at the prose that opens its comment group, so an ignore on
// the line above the directive would apply to it.
func directiveUnderProse(rt *core.Runtime) {
	//#omp target virtual(painter) name_as(render)
	{
		_ = rt
	}
	// Join the renders before the frame is presented; the tag
	// below is misspelt.
	//#omp wait(rendr) // want `wait on tag "rendr", but no name_as\(rendr\) directive or InvokeNamed/TargetBlock site defines it`
}
