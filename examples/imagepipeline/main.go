// Imagepipeline: the paper's Figure 2 scenario end to end — a
// time-consuming computation with background stages (S1, S3), a foreground
// progress update between them (S2), and a concluding foreground update
// (S4) — written with the await mode, so the handler reads sequentially yet
// the EDT stays live the whole time.
//
// The "image processing" is a real kernel: each frame is rendered by the
// Java Grande raytracer port.
//
// Run with: go run ./examples/imagepipeline
package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/kernels"
	"repro/internal/pyjama"
)

func main() {
	edt, err := pyjama.RegisterEDT("edt")
	if err != nil {
		panic(err)
	}
	if _, err := pyjama.CreateWorker("worker", 4); err != nil {
		panic(err)
	}

	// Each stage posts a heartbeat probe to the EDT just before its S2
	// block. The EDT queue is FIFO, so the probe runs before S2, and the
	// stage cannot finish until S2 has run: every probe runs while the
	// handler sits in its await barrier. Had the await run the stage inline
	// on the EDT, S2 would be inlined too and no probe would run until the
	// handler returned.
	var heartbeat atomic.Int64
	var beats int64

	const frames = 3
	handlerDone := make(chan struct{})

	// The whole pipeline is ONE sequential-looking handler.
	processButtonClick := func() {
		fmt.Println("[edt]    start processing", frames, "frames")
		for f := 1; f <= frames; f++ {
			frame := f
			var checksum int64

			// //#omp target virtual(worker) await
			// S1+S3: render the frame in the background; the await logical
			// barrier keeps this EDT handler pumping other events.
			comp := pyjama.TargetBlock("worker", pyjama.Nowait, "", func() {
				r := kernels.NewRayTracer(48)
				r.RunPar(4) // asynchronous parallel: offloaded AND parallel
				checksum = r.Checksum()

				edt.Post(func() { heartbeat.Add(1) })
				// S2: foreground progress update from within the stage.
				pyjama.TargetBlock("edt", pyjama.Wait, "", func() {
					fmt.Printf("[edt]    progress: frame %d/%d rendered\n", frame, frames)
				})
			})
			pyjama.AwaitCompletion(comp) // the handler continues only after the stage

			// S4: foreground conclusion — already on the EDT, so this
			// target block is inlined by thread-context awareness.
			pyjama.TargetBlock("edt", pyjama.Wait, "", func() {
				fmt.Printf("[edt]    frame %d checksum %d\n", frame, checksum)
			})
		}
		beats = heartbeat.Load()
		fmt.Printf("[edt]    pipeline finished; EDT heartbeats during handler: %d of %d\n", beats, frames)
		close(handlerDone)
	}

	edt.Post(processButtonClick)
	<-handlerDone

	if beats != frames {
		panic("EDT was blocked during the pipeline — await failed")
	}
	edt.Stop()
	pyjama.Runtime().Shutdown()
}
