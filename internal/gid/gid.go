// Package gid recovers a stable identity for the calling goroutine and
// maintains a registry mapping goroutine ids to the executor that owns them.
//
// The paper's runtime (Algorithm 1) needs "thread-context awareness": when a
// target block is invoked, the runtime asks whether the encountering thread
// is already a member of the destination virtual target's thread group. Java
// answers this with Thread.currentThread(); Go deliberately hides goroutine
// identity.
//
// Two implementations of Current coexist:
//
//   - stackParse reads the header line of runtime.Stack, which is stable
//     across releases ("goroutine 18 [running]:"). It costs microseconds —
//     tolerable when target-block boundaries are hundreds of milliseconds
//     apart, but it dominated the synchronous Invoke round trip once the
//     dispatch hot path itself was cut down to a few microseconds.
//   - on amd64/arm64 an assembly stub returns the runtime.g pointer and
//     Current reads the goid field directly. The field's offset is not part
//     of Go's compatibility promise, so it is discovered at init by scanning
//     g structs for the value stackParse reports (see fast.go); if discovery
//     fails, Current silently keeps using stackParse.
//
// Both paths return the same runtime-assigned id, which is never reused for
// the life of the process.
package gid

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// ID is a goroutine identifier. IDs are unique over the life of the process
// and are never reused by the Go runtime.
type ID uint64

// stackParse returns the calling goroutine's id by parsing the runtime.Stack
// header. It is the portable fallback and the calibration oracle for the
// fast path.
func stackParse() ID {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// Header: "goroutine 123 [running]:\n..."
	const prefix = "goroutine "
	s := buf[len(prefix):n]
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	id, err := strconv.ParseUint(string(s[:i]), 10, 64)
	if err != nil {
		// Unreachable with a conforming runtime; return the zero id, which
		// is never registered, so affiliation checks degrade to "not a
		// member" (safe: the block is posted instead of inlined).
		return 0
	}
	return ID(id)
}

// Registry maps live goroutines to an owner (an executor). Executors register
// their worker goroutines on start and must deregister them on exit.
//
// Reads are on every invoke's path and take no lock: they load the current
// snapshot, a map that is never modified once published. Register and
// Deregister — a worker starting or exiting — publish a modified copy.
//
// The zero value is ready to use.
type Registry struct {
	mu     sync.Mutex   // serialises writers
	owners atomic.Value // map[ID]any, read-only once stored
}

// Register records owner as the owner of the calling goroutine and returns
// the goroutine's id. A goroutine has one owner at a time: registering it
// again replaces the record, which is how the simulator's single goroutine
// takes on the identity of the executor whose task it is running.
func (r *Registry) Register(owner any) ID {
	id := Current()
	r.replace(id, owner)
	return id
}

// Deregister removes the calling goroutine's owner record.
func (r *Registry) Deregister() { r.replace(Current(), nil) }

// replace publishes a copy of the snapshot in which id belongs to owner, or
// to nobody when owner is nil.
func (r *Registry) replace(id ID, owner any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, _ := r.owners.Load().(map[ID]any)
	next := make(map[ID]any, len(old)+1)
	for k, v := range old {
		if k != id {
			next[k] = v
		}
	}
	if owner != nil {
		next[id] = owner
	}
	r.owners.Store(next)
}

// Owner returns the owner registered for the calling goroutine, or nil.
func (r *Registry) Owner() any {
	return r.OwnerOf(Current())
}

// OwnerOf returns the owner registered for goroutine id, or nil.
func (r *Registry) OwnerOf(id ID) any {
	owners, _ := r.owners.Load().(map[ID]any)
	return owners[id]
}

// IsOwnedBy reports whether the calling goroutine is registered to owner.
func (r *Registry) IsOwnedBy(owner any) bool {
	return r.Owner() == owner
}

// Len returns the number of registered goroutines (for tests/metrics).
func (r *Registry) Len() int {
	owners, _ := r.owners.Load().(map[ID]any)
	return len(owners)
}

// Default is the process-wide registry used by the core runtime.
var Default Registry
