package capture_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/capture"
)

func TestEnforcement(t *testing.T) {
	analysistest.Run(t, capture.Analyzer, "testdata/write")
}
