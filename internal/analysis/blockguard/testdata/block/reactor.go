// Reactor readiness callbacks are EDT-confined contexts: they run on the
// reactor's single poll goroutine, so blocking in one stalls every
// registered connection. blockguard must classify HandlerFuncs fields,
// Reactor.Post hops, and the Listen accept callback exactly like
// event-dispatch-thread deliveries.
package block

import (
	"sync"
	"time"

	"repro/internal/netloop"
	"repro/internal/reactor"
)

func reactorCallbacks(r *reactor.Reactor, comp chan int) {
	r.Listen("127.0.0.1:0", func(c *reactor.Conn) reactor.HandlerFuncs {
		time.Sleep(time.Millisecond) // want `time\.Sleep blocks the event-dispatch thread \(enclosing block is dispatched via Reactor\.Listen accept callback\)`
		return reactor.HandlerFuncs{
			OnReadable: func(c *reactor.Conn, data []byte) {
				time.Sleep(time.Millisecond) // want `time\.Sleep blocks the event-dispatch thread \(enclosing block is dispatched via reactor\.HandlerFuncs\.OnReadable\)`
			},
			OnDrained: func(c *reactor.Conn) {
				<-comp // want `channel receive blocks the event-dispatch thread \(enclosing block is dispatched via reactor\.HandlerFuncs\.OnDrained\)`
			},
			OnClose: func(c *reactor.Conn, err error) {
				var wg sync.WaitGroup
				wg.Wait() // want `sync\.WaitGroup\.Wait blocks the event-dispatch thread \(enclosing block is dispatched via reactor\.HandlerFuncs\.OnClose\)`
			},
		}
	})

	r.Post(func() {
		time.Sleep(time.Millisecond) // want `time\.Sleep blocks the event-dispatch thread \(enclosing block is dispatched via reactor Post\)`
	})
}

func reactorFieldAssignment(r *reactor.Reactor, h reactor.HandlerFuncs, done chan struct{}) {
	h.OnReadable = func(c *reactor.Conn, data []byte) {
		<-done // want `channel receive blocks the event-dispatch thread \(enclosing block is dispatched via reactor\.HandlerFuncs\.OnReadable\)`
	}
	r.Post(func() {
		time.Sleep(time.Millisecond) // want `time\.Sleep blocks the event-dispatch thread \(enclosing block is dispatched via reactor Post\)`
	})
}

// reactorClean shows the approved shape: the readiness callback offloads
// the slow work to a raw goroutine (stand-in for a worker target) and hops
// back with Reactor.Post; nothing blocks the poll goroutine.
func reactorClean(r *reactor.Reactor) {
	r.Listen("127.0.0.1:0", func(c *reactor.Conn) reactor.HandlerFuncs {
		return reactor.HandlerFuncs{
			OnReadable: func(c *reactor.Conn, data []byte) {
				line := string(data) // copy: data aliases the scratch buffer
				go func() {
					reply := process(line)
					r.Post(func() { c.Write([]byte(reply)) })
				}()
			},
		}
	})
}

func process(s string) string { return s }

// netloop handlers run on the server's single dispatch loop on both
// transports — goroutine-per-connection and the reactor.
func netloopHandlers(srv *netloop.Server, comp chan int) {
	srv.HandleFunc(func(c *netloop.Client, line string) {
		time.Sleep(time.Millisecond) // want `time\.Sleep blocks the event-dispatch thread \(enclosing block is dispatched via netloop Server\.HandleFunc handler\)`
	})
	srv.OnConnect(func(c *netloop.Client) {
		<-comp // want `channel receive blocks the event-dispatch thread \(enclosing block is dispatched via netloop Server\.OnConnect handler\)`
	})
	srv.OnClose(func(c *netloop.Client) {
		var wg sync.WaitGroup
		wg.Wait() // want `sync\.WaitGroup\.Wait blocks the event-dispatch thread \(enclosing block is dispatched via netloop Server\.OnClose handler\)`
	})
}
