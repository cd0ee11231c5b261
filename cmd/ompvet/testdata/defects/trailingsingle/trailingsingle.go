// Package trailingsingle seeds a directive that shares its line with code
// and so binds to no statement.
package trailingsingle

func work() {}

func count() int {
	x := 0
	x++ //#omp single
	{
		work()
	}
	return x
}
