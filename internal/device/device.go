// Package device simulates the physical accelerator that the original
// OpenMP 4.0 `target device(n)` directive offloads to. The paper contrasts
// its virtual targets with device targets: "conventionally, a device target
// has its own memory and data environment, therefore the data mapping and
// synchronization are necessary between the host and the target ... in
// contrast, a virtual target actually shares the same memory as the host".
//
// This package makes that contrast executable. A Device has
//
//   - its own memory arena: named buffers that hold *copies* of host data
//     (mutating host memory after a CopyTo does not affect the device);
//   - an in-order command queue (one stream, like a default CUDA stream):
//     kernels launched on the device execute serially in launch order;
//   - simulated transfer costs (configurable latency + bandwidth), so
//     benchmarks can expose the data-movement tax that motivates the
//     virtual-target design for host-side event handling.
//
// The constructs map onto the directive forms: Target is a `target
// device(n)` block with map clauses; TargetData is the `target data`
// region; CopyTo/CopyFrom are `target update`.
package device

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/executor"
	"repro/internal/gid"
)

// Errors reported by the device.
var (
	ErrNoBuffer  = errors.New("device: no such buffer")
	ErrDupBuffer = errors.New("device: buffer already allocated")
	ErrSize      = errors.New("device: host/device size mismatch")
	ErrStopped   = errors.New("device: stopped")
)

// Config sets the simulated transfer characteristics. The zero value gets
// defaults of 20µs latency and 4 GiB/s bandwidth — in the range of a PCIe
// accelerator, scaled to keep tests fast.
type Config struct {
	// TransferLatency is the fixed per-transfer cost.
	TransferLatency time.Duration
	// BytesPerSecond is the transfer bandwidth.
	BytesPerSecond float64
}

func (c *Config) fill() {
	if c.TransferLatency <= 0 {
		c.TransferLatency = 20 * time.Microsecond
	}
	if c.BytesPerSecond <= 0 {
		c.BytesPerSecond = 4 << 30
	}
}

// Stats is a snapshot of device activity.
type Stats struct {
	BytesToDevice   int64
	BytesFromDevice int64
	Transfers       int64
	KernelsRun      int64
	LiveBuffers     int
}

// Device is one simulated accelerator.
type Device struct {
	id    int
	cfg   Config
	queue *executor.WorkerPool

	mu      sync.Mutex
	buffers map[string][]byte
	stopped bool
	stats   Stats
}

// New creates device id with its command-queue goroutine registered in reg
// (nil means gid.Default).
func New(id int, reg *gid.Registry, cfg Config) *Device {
	cfg.fill()
	return &Device{
		id:      id,
		cfg:     cfg,
		queue:   executor.NewWorkerPool(fmt.Sprintf("device%d", id), 1, reg),
		buffers: make(map[string][]byte),
	}
}

// ID returns the device number.
func (d *Device) ID() int { return d.id }

// Name returns the virtual-target-style name ("device0"), matching what
// the pjc compiler generates for `target device(0)`.
func (d *Device) Name() string { return fmt.Sprintf("device%d", d.id) }

// Queue exposes the device's command queue as an executor, so the device
// can be registered as a target with core.Runtime.RegisterTarget. Blocks
// posted this way run in launch order on the device's single stream.
func (d *Device) Queue() *executor.WorkerPool { return d.queue }

// simulateTransfer sleeps for the modeled cost of moving n bytes.
func (d *Device) simulateTransfer(n int) {
	time.Sleep(d.cfg.TransferLatency + time.Duration(float64(n)/d.cfg.BytesPerSecond*float64(time.Second)))
}

// Alloc creates an uninitialized device buffer (map(alloc:)).
func (d *Device) Alloc(name string, size int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return ErrStopped
	}
	if _, dup := d.buffers[name]; dup {
		return fmt.Errorf("%w: %q", ErrDupBuffer, name)
	}
	d.buffers[name] = make([]byte, size)
	d.stats.LiveBuffers++
	return nil
}

// Free releases a device buffer (map(delete:)).
func (d *Device) Free(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.buffers[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoBuffer, name)
	}
	delete(d.buffers, name)
	d.stats.LiveBuffers--
	return nil
}

// CopyTo transfers host into the named device buffer (target update to:).
// Sizes must match. The device holds a copy: later host mutations are not
// visible on the device.
func (d *Device) CopyTo(name string, host []byte) error {
	d.mu.Lock()
	buf, ok := d.buffers[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoBuffer, name)
	}
	if len(buf) != len(host) {
		d.mu.Unlock()
		return fmt.Errorf("%w: buffer %q is %d bytes, host is %d", ErrSize, name, len(buf), len(host))
	}
	copy(buf, host)
	d.stats.BytesToDevice += int64(len(host))
	d.stats.Transfers++
	d.mu.Unlock()
	d.simulateTransfer(len(host))
	return nil
}

// CopyFrom transfers the named device buffer into host (target update
// from:). Sizes must match.
func (d *Device) CopyFrom(name string, host []byte) error {
	d.mu.Lock()
	buf, ok := d.buffers[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoBuffer, name)
	}
	if len(buf) != len(host) {
		d.mu.Unlock()
		return fmt.Errorf("%w: buffer %q is %d bytes, host is %d", ErrSize, name, len(buf), len(host))
	}
	copy(host, buf)
	d.stats.BytesFromDevice += int64(len(buf))
	d.stats.Transfers++
	d.mu.Unlock()
	d.simulateTransfer(len(host))
	return nil
}

// Mem is a kernel's view of device memory.
type Mem struct{ d *Device }

// Bytes returns the named device buffer for in-kernel access. The slice
// aliases device memory; it must not be retained past the kernel.
func (m Mem) Bytes(name string) ([]byte, error) {
	m.d.mu.Lock()
	defer m.d.mu.Unlock()
	buf, ok := m.d.buffers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoBuffer, name)
	}
	return buf, nil
}

// Launch enqueues kernel on the device's command stream and returns its
// completion. Kernels run serially in launch order.
func (d *Device) Launch(kernel func(mem Mem)) *executor.Completion {
	d.mu.Lock()
	stopped := d.stopped
	d.mu.Unlock()
	if stopped {
		return executor.NewCompletedCompletion(ErrStopped)
	}
	return d.queue.Post(func() {
		kernel(Mem{d: d})
		d.mu.Lock()
		d.stats.KernelsRun++
		d.mu.Unlock()
	})
}

// Map is one map clause of a target/target-data construct.
type Map struct {
	// Name is the device buffer name.
	Name string
	// Host is the host-side storage.
	Host []byte
	// To copies host -> device at region entry (map(to:) / map(tofrom:)).
	To bool
	// From copies device -> host at region exit (map(from:) / map(tofrom:)).
	From bool
}

// TargetData implements the `target data` construct: allocate and copy-in
// the mapped buffers, run body (which may Launch kernels and issue updates),
// then copy-out and free. Buffers are always freed, even if body panics.
func (d *Device) TargetData(maps []Map, body func()) (err error) {
	allocated := make([]string, 0, len(maps))
	defer func() {
		for _, name := range allocated {
			if ferr := d.Free(name); ferr != nil && err == nil {
				err = ferr
			}
		}
	}()
	for _, m := range maps {
		if aerr := d.Alloc(m.Name, len(m.Host)); aerr != nil {
			return aerr
		}
		allocated = append(allocated, m.Name)
		if m.To {
			if cerr := d.CopyTo(m.Name, m.Host); cerr != nil {
				return cerr
			}
		}
	}
	if rerr := executor.RunCaptured(body); rerr != nil {
		return rerr
	}
	for _, m := range maps {
		if m.From {
			if cerr := d.CopyFrom(m.Name, m.Host); cerr != nil {
				return cerr
			}
		}
	}
	return nil
}

// Target implements a full `target device(n)` block with map clauses:
// map-in, run the kernel synchronously on the device, map-out. This is the
// standard-OpenMP behaviour the paper's virtual targets replace for
// host-side work.
func (d *Device) Target(maps []Map, kernel func(mem Mem)) error {
	return d.TargetData(maps, func() {
		if err := d.Launch(kernel).Wait(); err != nil {
			panic(err) // recaptured by TargetData's RunCaptured
		}
	})
}

// TargetAsync is Target with the nowait clause: it returns immediately with
// a Completion that finishes after map-in, kernel and map-out are done. The
// data environment lives until the completion fires; the host must not
// touch the mapped buffers' device copies meanwhile (host slices stay
// host-owned, as always).
func (d *Device) TargetAsync(maps []Map, kernel func(mem Mem)) *executor.Completion {
	comp, complete := executor.NewPendingCompletion()
	go func() {
		complete(d.Target(maps, kernel))
	}()
	return comp
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Stop drains the command queue and rejects further use.
func (d *Device) Stop() {
	d.mu.Lock()
	d.stopped = true
	d.mu.Unlock()
	d.queue.Shutdown()
}
