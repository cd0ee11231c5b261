package sim_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/eventloop"
	"repro/internal/executor"
	"repro/internal/gid"
	"repro/internal/sim"
	"repro/internal/trace"
)

// slowSink delays the recording of every run span's end, widening the
// window between "the body returned" and "the span is closed" from
// nanoseconds to milliseconds: a joiner woken inside that window is caught
// deterministically instead of one run in ten.
type slowSink struct {
	mu     sync.Mutex
	events []trace.Event
}

func (s *slowSink) Record(e trace.Event) {
	if e.Op == trace.OpSpanEnd && e.Name == "run" {
		time.Sleep(2 * time.Millisecond)
	}
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *slowSink) runEnded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.events {
		if e.Op == trace.OpSpanEnd && e.Name == "run" {
			return true
		}
	}
	return false
}

// bracketCases runs one task on each executor kind. post submits fn to a
// fresh executor, hands the completion to join on a goroutine other than
// the runner while the task is still pending, and returns a probe that
// reports the runner's current span once everything has settled (not to be
// called after a task that killed its runner).
var bracketCases = []struct {
	name string
	post func(t *testing.T, fn func(), join func(*executor.Completion)) (runnerSpan func() trace.SpanID)
}{
	{
		name: "WorkerPool",
		post: func(t *testing.T, fn func(), join func(*executor.Completion)) func() trace.SpanID {
			var reg gid.Registry
			p := executor.NewWorkerPool("pool", 1, &reg)
			t.Cleanup(p.Shutdown)
			join(p.Post(fn))
			return func() (cur trace.SpanID) {
				p.Post(func() { cur = trace.Current() }).Wait()
				return cur
			}
		},
	},
	{
		name: "Loop",
		post: func(t *testing.T, fn func(), join func(*executor.Completion)) func() trace.SpanID {
			var reg gid.Registry
			l := eventloop.New("edt", &reg)
			l.Start()
			t.Cleanup(l.Stop)
			join(l.Post(fn))
			return func() (cur trace.SpanID) {
				l.Post(func() { cur = trace.Current() }).Wait()
				return cur
			}
		},
	},
	{
		name: "sim.Exec",
		post: func(t *testing.T, fn func(), join func(*executor.Completion)) func() trace.SpanID {
			var cur trace.SpanID
			exited, joined := make(chan struct{}), make(chan struct{})
			// The simulation gets a goroutine of its own so a task that
			// calls Goexit kills that, not the test.
			go func() {
				defer close(exited)
				_ = sim.New(1).Execute(func(s *sim.Sim) error {
					comp := s.NewPool("sim").Post(fn)
					go func() {
						defer close(joined)
						join(comp)
					}()
					s.Quiesce() // runs the task here while the joiner is parked
					<-joined
					cur = trace.Current()
					return nil
				})
			}()
			<-exited
			<-joined
			return func() trace.SpanID { return cur }
		},
	},
}

// TestRunSpanClosesBeforeJoin is the regression test for the causal-ordering
// defect behind the TestMetricsEndpoint flake ("run count = 7, want 8"):
// every executor must end a task's run span, and restore the runner's
// current span, before the task's completion wakes a joiner.
func TestRunSpanClosesBeforeJoin(t *testing.T) {
	for _, tc := range bracketCases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &slowSink{}
			restore := trace.Use(sink)
			defer restore()
			var inBody trace.SpanID
			probe := tc.post(t, func() { inBody = trace.Current() }, func(c *executor.Completion) {
				if err := c.Wait(); err != nil {
					t.Errorf("Wait = %v", err)
				}
				if !sink.runEnded() {
					t.Error("joiner woke while the task's run span was still open")
				}
			})
			if inBody == 0 {
				t.Error("run span was not current inside the body")
			}
			restore() // probe with tracing off, so it sees what the task left behind
			if cur := probe(); cur != 0 {
				t.Errorf("runner's current span = %d after the task, want 0 (not restored)", cur)
			}
		})
	}
}

// TestRunSpanClosesBeforeCrashVerdict: when the running goroutine dies
// mid-task, ErrWorkerCrashed is delivered only after the run span has ended.
func TestRunSpanClosesBeforeCrashVerdict(t *testing.T) {
	for _, tc := range bracketCases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &slowSink{}
			defer trace.Use(sink)()
			tc.post(t, runtime.Goexit, func(c *executor.Completion) {
				// Done, not Wait: a foreign goroutine's Wait consults the
				// sim's block hook, which reads Sim state the dying
				// simulation goroutine is resetting.
				<-c.Done()
				if err := c.Err(); !errors.Is(err, executor.ErrWorkerCrashed) {
					t.Errorf("err = %v, want ErrWorkerCrashed", err)
				}
				if !sink.runEnded() {
					t.Error("crash verdict delivered while the task's run span was still open")
				}
			})
		})
	}
}
