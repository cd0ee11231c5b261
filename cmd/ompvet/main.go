// Command ompvet is the multichecker for the event-driven OpenMP runtime:
// it runs the internal/analysis passes over Go packages and exits non-zero
// when any diagnostic survives //ompvet:ignore suppression.
//
// Usage:
//
//	ompvet [-passes list] [-list] [packages]
//
// Packages default to ./... and accept the usual go-command patterns. The
// passes are:
//
//	edtconfine    confined gui widget mutations off the event-dispatch thread
//	blockguard    blocking operations inside EDT / serial-target blocks
//	capture       cross-context writes to closure-captured variables
//	waitgraph     cycles and undefined tags in the name_as/wait graph
//	directivelint //#omp directive syntax, clause conflicts, attachment
//
// -list prints the passes and exits. testdata/defects holds one seeded
// defect per package and testdata/defects.golden the passes that catch
// each; TestDefectScoreboard keeps the two in step.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/blockguard"
	"repro/internal/analysis/capture"
	"repro/internal/analysis/directivelint"
	"repro/internal/analysis/edtconfine"
	"repro/internal/analysis/waitgraph"
)

var all = []*analysis.Analyzer{
	blockguard.Analyzer,
	capture.Analyzer,
	directivelint.Analyzer,
	edtconfine.Analyzer,
	waitgraph.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ompvet", flag.ExitOnError)
	passList := fs.String("passes", "", "comma-separated pass names to run (default: all)")
	listOnly := fs.Bool("list", false, "list the available passes and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: ompvet [-passes list] [-list] [packages]\n\npasses:\n")
		for _, a := range all {
			fmt.Fprintf(fs.Output(), "  %-13s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	fs.Parse(args)

	if *listOnly {
		for _, a := range all {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectPasses(*passList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ompvet: %v\n", err)
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ompvet: %v\n", err)
		return 2
	}
	loader := analysis.NewLoader()
	pkgs, err := loader.LoadPatterns(cwd, fs.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ompvet: %v\n", err)
		return 2
	}

	bad := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			// Type errors degrade the typed passes but do not fail the run:
			// go build owns compile errors, ompvet owns concurrency ones.
			fmt.Fprintf(os.Stderr, "ompvet: warning: %s: %v\n", pkg.Path, terr)
		}
		findings, err := analysis.RunPackage(pkg, analyzers, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ompvet: %v\n", err)
			return 2
		}
		for _, f := range findings {
			fmt.Println(f.String())
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "ompvet: %d issue(s)\n", bad)
		return 1
	}
	return 0
}

// selectPasses resolves the -passes flag against the registry.
func selectPasses(list string) ([]*analysis.Analyzer, error) {
	if list == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown pass %q", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no passes selected")
	}
	return out, nil
}
