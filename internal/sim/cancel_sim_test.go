package sim_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/executor"
	"repro/internal/sim"
)

// TestExploreCancelVsDispatch is the cross-executor race of Completion.Cancel
// under the explorer: tasks queued on a pool and on a loop, each with a
// sibling on another pool that cancels it at a seed-chosen moment. Under
// every schedule a task ran or was cancelled, never both and never neither;
// its completion carries the error Cancel was given exactly when Cancel
// returned true; and a skipped task is not a dispatch. Both outcomes must
// occur somewhere in the batch, or the scenario explored nothing.
func TestExploreCancelVsDispatch(t *testing.T) {
	errRevoked := errors.New("revoked by the scenario")
	var sawRan, sawCancelled bool
	sim.ExploreT(t, "cancel-vs-dispatch", sim.Options{Runs: 64}, func(s *sim.Sim) error {
		cancellers := s.NewPool("cancellers")
		for _, target := range []*sim.Exec{s.NewPool("workers"), s.NewLoop("edt")} {
			var ran, cancelled [4]bool
			var comps [4]*executor.Completion
			for i := range comps {
				comps[i] = target.Post(func() { ran[i] = true })
				cancellers.Post(func() {
					s.Yield()
					cancelled[i] = comps[i].Cancel(errRevoked)
				})
			}
			s.Quiesce()
			bodies := int64(0)
			for i, c := range comps {
				if ran[i] == cancelled[i] || cancelled[i] != (c.Err() == errRevoked) || !c.Finished() {
					return fmt.Errorf("%s task %d: ran=%v cancelled=%v err=%v finished=%v",
						target.Name(), i, ran[i], cancelled[i], c.Err(), c.Finished())
				}
				if ran[i] {
					bodies++
				}
				sawRan, sawCancelled = sawRan || ran[i], sawCancelled || cancelled[i]
			}
			if got := target.Dispatched(); got != bodies {
				return fmt.Errorf("%s: Dispatched = %d with %d bodies run", target.Name(), got, bodies)
			}
		}
		return nil
	})
	if !sawRan || !sawCancelled {
		t.Fatalf("explored only one outcome: ran=%v cancelled=%v", sawRan, sawCancelled)
	}
}
