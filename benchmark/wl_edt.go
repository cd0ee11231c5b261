package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/gui"
	"repro/internal/kernels"
)

// Event modes of edt_dispatch, drawn from the seed for every event: the
// four scheduling modes of Table I side by side, so that a gain for one
// that costs another shows.
const (
	modeFigure6 = iota // Invoke(worker, Nowait) whose block ends with Invoke(edt, Wait)
	modeAwait          // Invoke(worker, Await) from the EDT
	modeNameAs         // two InvokeNamed(worker, tag) joined by WaitTag on the joiner target
)

const (
	edtInFlight   = 32     // edt_dispatch: events in flight (closed loop)
	edtWarmup     = 50000  // edt_dispatch: warm-up events
	kernelSize    = 200000 // gui_kernels: Crypt payload, about 6 ms
	kernelRate    = 100    // gui_kernels: offered events per second (open loop)
	kernelSlots   = 256    // gui_kernels: events that may be outstanding before one is refused
	kernelWarmup  = 48     // gui_kernels: warm-up events
	kernelParStep = 4      // gui_kernels: every fourth event runs its kernel on an OpenMP team
)

// edtWorkload is edt_dispatch (kernel == false) and gui_kernels (kernel ==
// true): events posted to a gui.Toolkit EDT registered as virtual target
// "edt", each offloading its work to the "worker" target and updating a
// label before and after.
type edtWorkload struct {
	kernel bool
	nproc  int

	rng    *rand.Rand
	rt     *core.Runtime
	tk     *gui.Toolkit
	status *gui.Label
	worker *executor.WorkerPool
	joiner *executor.WorkerPool

	slots     []*event
	free      chan *event
	nextID    uint64
	wantSum   int64 // gui_kernels: checksum every event must produce
	completed int64 // events finished correctly; EDT only

	tr  *tracer
	rec *recorder // EDT only while a run is in progress
}

// event is one slot of the in-flight window. Its closures are bound once, at
// set-up, so that what a round allocates is the runtime's, not the harness's.
type event struct {
	w   *edtWorkload
	tag string

	id     uint64
	mode   int
	par    bool
	input  uint64
	want   uint64
	got    [2]uint64
	sum    int64
	valid  bool
	traced bool

	due                       int64    // when the event was due or sent, for its latency
	posted, invoked, updateAt int64    // span starts, set only when traced
	half                      [2]int64 // span starts of the two name_as blocks

	updates, finishes int // EDT only

	onEDT, figure6Block, awaitBlock, joinBlock, update func()
	halves                                             [2]func()
}

func newEDTWorkload(nproc int, kernel bool) *edtWorkload {
	return &edtWorkload{kernel: kernel, nproc: nproc}
}

func (w *edtWorkload) lanes() int { return 1 }

func (w *edtWorkload) traceEvery() uint64 {
	if w.kernel {
		return 1
	}
	return 256
}

func (w *edtWorkload) setTracer(t *tracer) { w.tr = t }

func (w *edtWorkload) setup(seed int64) error {
	w.rng = rand.New(rand.NewSource(seed))
	reg := &gid.Registry{}
	w.rt = core.NewRuntime(reg)
	w.tk = gui.NewToolkit(reg)
	w.tk.SetPolicy(gui.CountViolations)
	w.status = w.tk.NewLabel("status")
	if err := w.rt.RegisterEDT("edt", w.tk.EDT()); err != nil {
		return err
	}
	var err error
	if w.worker, err = w.rt.CreateWorker("worker", w.nproc); err != nil {
		return err
	}
	// Two workers, not one: the joiner blocks in WaitTag, which a
	// single-worker target (an EDT in all but name) must never do.
	if w.joiner, err = w.rt.CreateWorker("joiner", 2); err != nil {
		return err
	}
	n := edtInFlight
	if w.kernel {
		n = kernelSlots
		k := kernels.NewCrypt(kernelSize)
		k.RunSeq()
		w.wantSum = k.Checksum()
	}
	w.slots = make([]*event, n)
	w.free = make(chan *event, n)
	for i := range w.slots {
		ev := &event{w: w, tag: "ev" + strconv.Itoa(i)}
		ev.bind()
		w.slots[i] = ev
		w.free <- ev
	}
	return nil
}

func xorshift(x uint64, steps int) uint64 {
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

const halfSalt = 0x9e3779b97f4a7c15

// expected is the local oracle for an edt_dispatch event.
func expected(mode int, input uint64) uint64 {
	if mode == modeNameAs {
		return xorshift(input, 32) ^ xorshift(input^halfSalt, 32)
	}
	return xorshift(input, 64)
}

// stamp returns the time if the event is traced, so that untraced events
// pay for a branch, not for a clock reading.
func (ev *event) stamp() int64 {
	if ev.traced {
		return nanotime()
	}
	return 0
}

// span records [start, now) for a traced event.
func (ev *event) span(kind, parent spanKind, start int64) {
	if ev.traced {
		ev.w.tr.add(ev.id, kind, parent, start, nanotime())
	}
}

// bind creates the event's closures. The handler bodies are written the way
// an application would write them; only their allocation is hoisted.
func (ev *event) bind() {
	w := ev.w
	ev.onEDT = func() {
		// The await mode finishes the event inside this handler, after
		// which the slot may be reissued: what the last span needs is
		// copied first.
		id, traced, t0 := ev.id, ev.traced, ev.stamp()
		if traced {
			w.tr.add(id, spEDTQueue, spOp, ev.posted, t0)
		}
		ev.updates++
		w.status.SetText("processing")
		ev.invoked = ev.stamp()
		switch ev.mode {
		case modeFigure6:
			// Figure 6: a nowait block on worker that ends with a
			// default-mode (waiting) block on edt for the update.
			w.rt.Invoke("worker", core.Nowait, ev.figure6Block)
			ev.span(spInvokeNowait, spEDTHandler, ev.invoked)
		case modeAwait:
			// An await block on worker; the EDT pumps other events
			// meanwhile and does the update itself afterwards.
			w.rt.Invoke("worker", core.Await, ev.awaitBlock)
			ev.span(spInvokeAwait, spEDTHandler, ev.invoked)
			ev.update()
		case modeNameAs:
			// A nowait block on joiner that starts two name_as blocks
			// on worker, waits for their tag and updates on edt.
			w.rt.Invoke("joiner", core.Nowait, ev.joinBlock)
			ev.span(spInvokeNowait, spEDTHandler, ev.invoked)
		}
		if traced {
			w.tr.add(id, spEDTHandler, spOp, t0, nanotime())
		}
	}
	ev.figure6Block = func() {
		ev.work(0)
		ev.updateAt = ev.stamp()
		w.rt.Invoke("edt", core.Wait, ev.update)
	}
	ev.awaitBlock = func() { ev.work(0) }
	ev.joinBlock = func() {
		for part := range ev.halves {
			ev.half[part] = ev.stamp()
			w.rt.InvokeNamed("worker", ev.tag, ev.halves[part])
			ev.span(spInvokeNameAs, spOp, ev.half[part])
		}
		t := ev.stamp()
		if err := w.rt.WaitTag(ev.tag); err != nil {
			ev.valid = false
		}
		ev.span(spJoinWait, spOp, t)
		ev.updateAt = ev.stamp()
		w.rt.Invoke("edt", core.Wait, ev.update)
	}
	ev.halves[0] = func() { ev.work(0) }
	ev.halves[1] = func() { ev.work(1) }
	ev.update = func() {
		if ev.mode != modeAwait {
			ev.span(spUpdateQueue, spOp, ev.updateAt)
		}
		ev.updates++
		w.status.SetText("done")
		w.finish(ev)
	}
}

// work is the handler body proper, run on a worker: a 64-step xorshift (or
// one 32-step half of it) on edt_dispatch, a Crypt kernel on gui_kernels.
func (ev *event) work(part int) {
	w := ev.w
	t0 := ev.stamp()
	if ev.traced {
		queued := ev.invoked
		if ev.mode == modeNameAs {
			queued = ev.half[part]
		}
		w.tr.add(ev.id, spWorkerQueue, spOp, queued, t0)
	}
	switch {
	case w.kernel:
		k := kernels.NewCrypt(kernelSize)
		if ev.par {
			k.RunPar(w.nproc)
		} else {
			k.RunSeq()
		}
		ev.sum = k.Checksum()
		ev.valid = k.Validate() == nil
	case ev.mode == modeNameAs:
		in := ev.input
		if part == 1 {
			in ^= halfSalt
		}
		ev.got[part] = xorshift(in, 32)
	default:
		ev.got[0] = xorshift(ev.input, 64)
	}
	ev.span(spWorkerBody, spOp, t0)
}

// finish runs on the EDT when the event's second label update is done. It
// is the per-operation oracle: finished exactly once, two updates, and the
// result the generator computed locally.
func (w *edtWorkload) finish(ev *event) {
	now := nanotime()
	ev.finishes++
	ok := ev.finishes == 1 && ev.updates == 2 && ev.valid
	if w.kernel {
		ok = ok && ev.sum == w.wantSum
	} else {
		ok = ok && ev.got[0]^ev.got[1] == ev.want
	}
	ev.span(spOp, spNone, ev.posted)
	if ok {
		w.completed++
		w.rec.ok(0, now-ev.due)
	} else {
		w.rec.fail()
	}
	w.free <- ev
}

// issue fills slot ev with the next event and posts it to the EDT. due is
// when the event was due (open loop) or is being sent (closed loop).
func (w *edtWorkload) issue(ev *event, due int64) {
	w.nextID++
	r := w.rng.Uint64()
	ev.id, ev.input, ev.due = w.nextID, r, due
	ev.mode, ev.par = modeFigure6, false
	if w.kernel {
		ev.par = ev.id%kernelParStep == 0
	} else {
		switch pick := r >> 32 % 100; {
		case pick >= 80:
			ev.mode = modeNameAs
		case pick >= 50:
			ev.mode = modeAwait
		}
		ev.want = expected(ev.mode, r)
	}
	ev.got = [2]uint64{}
	ev.sum, ev.valid = 0, true
	ev.updates, ev.finishes = 0, 0
	ev.traced = w.tr.sampled(ev.id)
	ev.posted = ev.stamp()
	w.tk.EDT().Post(ev.onEDT)
}

// drain takes every slot back, which happens only once every event issued
// has finished, and returns them to the free list.
func (w *edtWorkload) drain() {
	for range w.slots {
		<-w.free
	}
	for _, ev := range w.slots {
		w.free <- ev
	}
}

func (w *edtWorkload) closedLoop(rec *recorder, more func(issued int) bool) {
	w.rec = rec
	for n := 0; more(n); n++ {
		w.issue(<-w.free, nanotime())
	}
	w.drain()
}

func (w *edtWorkload) warmup(rec *recorder, scale float64) {
	n := int(edtWarmup * scale)
	if w.kernel {
		n = int(kernelWarmup * scale)
	}
	w.closedLoop(rec, func(issued int) bool { return issued < n })
}

func (w *edtWorkload) run(d time.Duration, rec *recorder) {
	if !w.kernel {
		deadline := time.Now().Add(d)
		w.closedLoop(rec, func(int) bool { return time.Now().Before(deadline) })
		return
	}
	// Open loop: a Poisson process at kernelRate conditioned on its count,
	// that is, count uniform arrival times over the round, from the seed.
	w.rec = rec
	count := int(d.Seconds()*kernelRate + 0.5)
	offsets := make([]int64, count)
	for i := range offsets {
		offsets[i] = int64(w.rng.Float64() * float64(d))
	}
	slices.Sort(offsets)
	start := nanotime()
	var issued int64
	for _, off := range offsets {
		due := start + off
		if wait := due - nanotime(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		rec.genLag = append(rec.genLag, nanotime()-due)
		select {
		case ev := <-w.free:
			w.issue(ev, due)
		default:
			rec.fail() // refused: the whole slot table is outstanding
		}
		issued++
		rec.backlog = int(issued - rec.done.Load())
	}
	w.drain()
}

func (w *edtWorkload) probe(dispatched func()) { w.tk.EDT().Post(dispatched) }

func (w *edtWorkload) counters() layerCounters {
	ws, js := w.worker.Stats(), w.joiner.Stats()
	return layerCounters{
		steals:        ws.Steals + js.Steals,
		helped:        ws.Helped + js.Helped,
		execQueuePeak: max(ws.QueuePeak, js.QueuePeak),
		loopQueuePeak: w.tk.EDT().QueuePeak(),
	}
}

func (w *edtWorkload) teardown() error {
	updates := w.tk.Updates()
	w.rt.Shutdown()
	w.tk.Dispose()
	var errs []error
	if v := w.tk.Violations(); v != 0 {
		errs = append(errs, fmt.Errorf("%d EDT confinement violations", v))
	}
	for _, p := range []*executor.WorkerPool{w.worker, w.joiner} {
		if st := p.Stats(); st.Submitted != st.Completed || st.Panics != 0 || st.Crashes != 0 {
			errs = append(errs, fmt.Errorf("target %s: submitted %d completed %d panics %d crashes %d",
				p.Name(), st.Submitted, st.Completed, st.Panics, st.Crashes))
		}
	}
	if int64(w.nextID) == w.completed && updates != 2*w.completed {
		errs = append(errs, fmt.Errorf("%d label updates for %d events, want two each", updates, w.completed))
	}
	return errors.Join(errs...)
}
