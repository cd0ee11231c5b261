package eventloop

import (
	"os"
	"testing"

	"repro/internal/testutil/leakcheck"
)

// TestMain sweeps the whole suite for leaked goroutines: after the last
// test, every loop dispatcher must have exited.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
