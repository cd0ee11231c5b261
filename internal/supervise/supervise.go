// Package supervise grades virtual targets' health. Respawning is the pool's
// own (executor.NewSupervisedPool); Grade turns its restart record into a
// health grade, and the Watchdog (watchdog.go) heartbeats loops and pools to
// flag what no crash count shows: a target alive but not draining — a
// blocked EDT, a wedged pool, a queue past its sojourn bound. httpserver
// serves both snapshots on /healthz; the watchdog's trace.OpStall, like the
// pool's OpRestart and OpTargetDown, goes to the active trace sink.
package supervise

import (
	"time"

	"repro/internal/executor"
)

// Status grades a target's health for reporting: Healthy targets have had a
// quiet window, Degraded targets respawned a worker recently, Down targets
// are out of restart budget.
type Status int

// The health grades, ordered by severity.
const (
	Healthy Status = iota
	Degraded
	Down
)

// String renders the status the way /healthz spells it.
func (s Status) String() string {
	switch s {
	case Healthy:
		return "ok"
	case Degraded:
		return "degraded"
	case Down:
		return "down"
	default:
		return "unknown"
	}
}

// TargetHealth is a point-in-time health snapshot of one supervised target.
type TargetHealth struct {
	Name           string    `json:"name"`
	Status         string    `json:"status"`
	Restarts       int64     `json:"restarts"`        // lifetime respawns
	RecentRestarts int       `json:"recent_restarts"` // within the sliding window
	LastError      string    `json:"last_error,omitempty"`
	LastRestart    time.Time `json:"last_restart,omitempty"`
}

// StatusValue is the Status the snapshot's Status string encodes.
func (h TargetHealth) StatusValue() Status {
	switch h.Status {
	case Down.String():
		return Down
	case Degraded.String():
		return Degraded
	default:
		return Healthy
	}
}

// Grade is the health of the target named name whose pool reported r: Down
// once the pool is out of budget, Degraded for one quiet window after its
// last respawn, Healthy otherwise.
func Grade(name string, r executor.Restarts) TargetHealth {
	h := TargetHealth{
		Name:           name,
		Restarts:       r.Total,
		RecentRestarts: r.Recent,
		LastRestart:    r.LastRestart,
	}
	if r.LastCrash != nil {
		h.LastError = r.LastCrash.Error()
	}
	switch {
	case r.Down:
		h.Status = Down.String()
	case r.Recent > 0:
		h.Status = Degraded.String()
	default:
		h.Status = Healthy.String()
	}
	return h
}
