package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs every workload for one short traced run (which also takes
// untraced rounds and the layer probes) and checks that every metric
// BENCHMARK.json names comes out once, finite, under a well-formed name, and
// that BENCHMARK.json and metrics.go declare the same things.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, js []declared, defs []metricDef) {
		if len(js) != len(defs) {
			t.Fatalf("BENCHMARK.json names %d %s metrics, metrics.go %d", len(js), kind, len(defs))
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if js[i] != (declared{d.name, d.unit, better, d.bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, metrics.go %+v", kind, i, js[i], d)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEnd)
	same("per_layer", bm.PerLayer, perLayer)

	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	gated := 0
	for _, wd := range workloadDefs {
		if wd.gated {
			if gated == len(bm.Workloads) {
				t.Fatalf("BENCHMARK.json names %d workloads, metrics.go gates more", gated)
			}
			if bm.Workloads[gated].Name != wd.name || bm.Workloads[gated].Why != wd.why {
				t.Errorf("gated workload %d: BENCHMARK.json has %+v, metrics.go %q", gated, bm.Workloads[gated], wd.name)
			}
			gated++
		}
		res, err := runWorkload(config{
			workload: wd.name, seed: 1, rounds: 1, roundDur: 300 * time.Millisecond,
			traced: true, spansDir: t.TempDir(), scale: 0.002,
		})
		if err != nil {
			t.Fatalf("%s: %v", wd.name, err)
		}
		if res.Skipped != "" {
			t.Logf("%s skipped: %s", wd.name, res.Skipped)
			continue
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d, notes %v", wd.name, res.Correct, res.Attempted, res.Failed, res.Notes)
		}
		if got, want := len(res.Metrics), len(endToEnd)+len(perLayer); got != want {
			t.Errorf("%s: %d metrics emitted, %d declared", wd.name, got, want)
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !wellFormed.MatchString(d.name):
					t.Errorf("metric name %q is not well formed", d.name)
				case !ok:
					t.Errorf("%s: metric %s was not emitted", wd.name, d.name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", wd.name, d.name, m.Value)
				}
			}
		}
	}
	if gated != len(bm.Workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, metrics.go gates %d", len(bm.Workloads), gated)
	}
}
