package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestDefectScoreboard runs every pass over each seeded-defect package under
// testdata/defects and compares which passes fired with the committed table
// testdata/defects.golden, one "package: passes" line per defect ("-" when
// nothing fires). A pass that stops catching its defect, or starts firing on
// a clean control, changes the table.
func TestDefectScoreboard(t *testing.T) {
	dirs, err := os.ReadDir("testdata/defects")
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader()
	var got strings.Builder
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		abs, err := filepath.Abs(filepath.Join("testdata/defects", d.Name()))
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(abs, "ompvet.defects/"+d.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range pkg.TypeErrors {
			t.Errorf("%s must type-check: %v", d.Name(), e)
		}
		findings, err := analysis.RunPackage(pkg, all, true)
		if err != nil {
			t.Fatal(err)
		}
		fired := map[string]bool{}
		for _, f := range findings {
			fired[f.Pass] = true
		}
		passes := []string{}
		for p := range fired {
			passes = append(passes, p)
		}
		sort.Strings(passes)
		if len(passes) == 0 {
			passes = []string{"-"}
		}
		got.WriteString(d.Name() + ": " + strings.Join(passes, ",") + "\n")
	}
	want, err := os.ReadFile("testdata/defects.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("scoreboard changed:\n--- got ---\n%s--- want (testdata/defects.golden) ---\n%s", got.String(), want)
	}
}
