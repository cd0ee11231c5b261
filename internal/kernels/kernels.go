// Package kernels ports the four Java Grande Forum benchmark kernels the
// paper's evaluation embeds in event handlers: Crypt (IDEA encryption),
// Series (Fourier coefficients), MonteCarlo (stochastic simulation) and
// RayTracer (3D rendering). Each has a sequential implementation and a
// parallel one built on the omp substrate, plus validation.
//
// The kernels are deterministic for a given size/seed, so the parallel
// variants can be checked for bit-identical results against the sequential
// ones, and response-time benchmarks are repeatable.
package kernels

import (
	"fmt"
	"math"
	"time"
)

// Kernel is one runnable computational workload instance. Instances are
// single-use state machines: construct, run (sequentially or in parallel),
// then validate.
type Kernel interface {
	// Name identifies the kernel family ("crypt", "series", ...).
	Name() string
	// RunSeq executes the kernel on the calling goroutine.
	RunSeq()
	// RunPar executes the kernel with an OpenMP team of n threads (n <= 0
	// selects runtime.GOMAXPROCS(0), as omp.Parallel does). The calling goroutine is the master
	// and participates, per the fork-join model.
	RunPar(n int)
	// Validate checks the result of the last Run and returns a descriptive
	// error on mismatch.
	Validate() error
}

// Factory builds a fresh kernel instance scaled by size. What "size" means
// is kernel-specific (bytes for crypt, coefficients for series, paths for
// montecarlo, image width for raytracer); every kernel's cost is monotonic
// in it.
type Factory func(size int) Kernel

// Factories returns the kernel families keyed by name.
func Factories() map[string]Factory {
	return map[string]Factory{
		"crypt":      func(size int) Kernel { return NewCrypt(size) },
		"series":     func(size int) Kernel { return NewSeries(size) },
		"montecarlo": func(size int) Kernel { return NewMonteCarlo(size, 0) },
		"raytracer":  func(size int) Kernel { return NewRayTracer(size) },
	}
}

// Names returns the kernel family names in the paper's order.
func Names() []string { return []string{"crypt", "series", "montecarlo", "raytracer"} }

// TestSize returns a small size for the given family suitable for unit
// tests (sub-millisecond to a few milliseconds).
func TestSize(name string) int {
	switch name {
	case "crypt":
		return 64 * 1024 // bytes
	case "series":
		return 32 // coefficient pairs
	case "montecarlo":
		return 500 // paths
	case "raytracer":
		return 24 // image width (square)
	default:
		panic(fmt.Sprintf("kernels: unknown family %q", name))
	}
}

// Calibrate searches for a size whose construction plus sequential execution
// takes roughly target on this machine (within a factor of ~1.3), starting
// from the family's test size and scaling. Construction is timed because
// every handler the result feeds builds its kernel inside the handler. The
// paper's evaluation sizes handlers in the hundreds-of-milliseconds regime;
// absolute machine speed differs, so the harness calibrates instead of
// hardcoding Java Grande sizes.
func Calibrate(f Factory, start int, target time.Duration) int {
	if start < 1 {
		start = 1
	}
	size := start
	for i := 0; i < 24; i++ {
		t0 := time.Now()
		f(size).RunSeq()
		d := time.Since(t0)
		if d <= 0 {
			size *= 8
			continue
		}
		ratio := float64(target) / float64(d)
		if ratio < 1.3 && ratio > 0.77 {
			return size
		}
		// Step with a damped exponent: kernels whose cost is superlinear in
		// size (raytracer is ~quadratic in width) would oscillate around the
		// target under a proportional step.
		next := int(float64(size) * math.Pow(ratio, 0.6))
		if next < 1 {
			next = 1
		}
		// Damp wild swings from timer noise at tiny sizes.
		if next > size*16 {
			next = size * 16
		}
		if next == size {
			if ratio > 1 {
				next = size + 1
			} else if size > 1 {
				next = size - 1
			} else {
				return size
			}
		}
		size = next
	}
	return size
}
