package omp

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestForOrderedSequencesSections(t *testing.T) {
	const n = 200
	var mu sync.Mutex
	var order []int
	var unorderedWork atomic.Int64
	Parallel(4, func(tc *Team) {
		tc.ForOrdered(0, n, Dynamic, 1, func(i int, ordered func(func())) {
			unorderedWork.Add(1) // pre-section work runs in any order
			ordered(func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		})
	})
	if len(order) != n {
		t.Fatalf("ordered sections ran %d times", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("ordered sections out of order at %d: %v...", i, order[:i+1])
		}
	}
	if unorderedWork.Load() != n {
		t.Fatalf("body ran %d times", unorderedWork.Load())
	}
}

func TestForOrderedNonZeroLowerBound(t *testing.T) {
	var mu sync.Mutex
	var order []int
	Parallel(3, func(tc *Team) {
		tc.ForOrdered(10, 30, Dynamic, 2, func(i int, ordered func(func())) {
			ordered(func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		})
	})
	for k, v := range order {
		if v != 10+k {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestForOrderedSingleThread(t *testing.T) {
	var order []int
	Parallel(1, func(tc *Team) {
		tc.ForOrdered(0, 5, Static, 0, func(i int, ordered func(func())) {
			ordered(func() { order = append(order, i) })
		})
	})
	if len(order) != 5 {
		t.Fatalf("order = %v", order)
	}
}

func BenchmarkForOrdered(b *testing.B) {
	Parallel(4, func(tc *Team) {
		tc.Master(func() {
			// Only measure from the master; the loop below is SPMD.
		})
	})
	for i := 0; i < b.N; i++ {
		Parallel(4, func(tc *Team) {
			tc.ForOrdered(0, 256, Dynamic, 1, func(j int, ordered func(func())) {
				ordered(func() {})
			})
		})
	}
}
