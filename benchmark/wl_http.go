package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpserver"
	"repro/internal/kernels"
)

const (
	httpSmall  = 1 << 10   // 75% of requests
	httpLarge  = 256 << 10 // 25% of requests, about 8 ms of Crypt
	httpBlock  = 20        // requests per block: the sizes of a block are exactly 75%/25%, in seeded order
	httpWarmup = 200
)

// httpWorkload is http_encrypt, the paper's Evaluation B: nproc keep-alive
// clients, each a closed loop, against the virtual-target HTTP server.
type httpWorkload struct {
	nproc int

	srv     *httpserver.Server
	clients []*httpClient
	want    map[int]int64 // size -> checksum of a local sequential run
	sent    atomic.Int64  // requests sent, warm-up included
	nextID  atomic.Uint64

	tr *tracer
}

type httpClient struct {
	*httpserver.Client
	rng   *rand.Rand
	sizes []int // what is left of the current block
}

func newHTTPWorkload(nproc int) *httpWorkload { return &httpWorkload{nproc: nproc} }

func (w *httpWorkload) lanes() int          { return w.nproc }
func (w *httpWorkload) traceEvery() uint64  { return 1 }
func (w *httpWorkload) setTracer(t *tracer) { w.tr = t }

func (w *httpWorkload) setup(seed int64) error {
	w.want = make(map[int]int64)
	for _, size := range []int{httpSmall, httpLarge} {
		k := kernels.NewCrypt(size)
		k.RunSeq()
		w.want[size] = k.Checksum()
	}
	w.srv = httpserver.New(httpserver.Config{Mode: httpserver.Pyjama, Workers: w.nproc, KernelBytes: httpSmall})
	base, err := w.srv.Start()
	if err != nil {
		return err
	}
	for i := 0; i < w.nproc; i++ {
		w.clients = append(w.clients, &httpClient{
			Client: httpserver.NewClient(base),
			rng:    rand.New(rand.NewSource(seed*1000 + int64(i))),
		})
	}
	return nil
}

// nextSize draws the next request size from the client's seed stream. Sizes
// come in shuffled blocks with the exact mix, so that the share of large
// requests a round happens to contain does not move its per-op metrics.
func (c *httpClient) nextSize() int {
	if len(c.sizes) == 0 {
		for i := 0; i < httpBlock; i++ {
			size := httpSmall
			if i < httpBlock/4 {
				size = httpLarge
			}
			c.sizes = append(c.sizes, size)
		}
		c.rng.Shuffle(len(c.sizes), func(i, j int) { c.sizes[i], c.sizes[j] = c.sizes[j], c.sizes[i] })
	}
	size := c.sizes[len(c.sizes)-1]
	c.sizes = c.sizes[:len(c.sizes)-1]
	return size
}

// request sends client i's next request and checks the body against the
// local oracle.
func (w *httpWorkload) request(i int, rec *recorder) {
	c := w.clients[i]
	size := c.nextSize()
	id := w.nextID.Add(1)
	t0 := nanotime()
	sum, err := c.Encrypt(size)
	t1 := nanotime()
	w.sent.Add(1)
	if err != nil || sum != w.want[size] {
		rec.fail()
		return
	}
	rec.ok(i, t1-t0)
	if w.tr.sampled(id) {
		kind := spHTTPSmall
		if size == httpLarge {
			kind = spHTTPLarge
		}
		w.tr.add(id, kind, spNone, t0, t1)
	}
}

// each runs fn(client index) on one goroutine per client and waits.
func (w *httpWorkload) each(fn func(i int)) {
	var wg sync.WaitGroup
	for i := range w.clients {
		wg.Add(1)
		go func() { defer wg.Done(); fn(i) }()
	}
	wg.Wait()
}

func (w *httpWorkload) warmup(rec *recorder, scale float64) {
	w.each(func(i int) {
		for n := 0; n < int(httpWarmup*scale)/w.nproc; n++ {
			w.request(i, rec)
		}
	})
}

func (w *httpWorkload) run(d time.Duration, rec *recorder) {
	deadline := time.Now().Add(d)
	w.each(func(i int) {
		for time.Now().Before(deadline) {
			w.request(i, rec)
		}
	})
}

func (w *httpWorkload) counters() layerCounters {
	st := w.srv.SchedStats()["worker"]
	return layerCounters{steals: st.Steals, helped: st.Helped, execQueuePeak: st.QueuePeak}
}

func (w *httpWorkload) teardown() error {
	w.srv.Stop() // joins the workers, so the counters below are final
	st := w.srv.SchedStats()["worker"]
	served, errs := w.srv.Served(), w.srv.Errors()
	switch {
	case errs != 0:
		return fmt.Errorf("server counted %d errors", errs)
	case served != w.sent.Load():
		return fmt.Errorf("server served %d requests, clients sent %d", served, w.sent.Load())
	case st.Submitted != st.Completed || st.Panics != 0 || st.Crashes != 0:
		return fmt.Errorf("worker target: submitted %d completed %d panics %d crashes %d",
			st.Submitted, st.Completed, st.Panics, st.Crashes)
	}
	return nil
}
