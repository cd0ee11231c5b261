// Package analysis is a self-contained static-analysis framework in the
// shape of golang.org/x/tools/go/analysis, built only on the standard
// library (go/ast, go/parser, go/types). It exists because the paper's
// programming model comes with safety rules the runtime can only catch at
// execution time — EDT confinement of widgets, the never-block-the-EDT
// rule, acyclicity of name_as/wait dependencies — and this repo wants those
// proved in CI, before a program runs.
//
// The framework provides:
//
//   - Analyzer/Pass/Diagnostic — the x/tools/go/analysis surface the five
//     ompvet passes (edtconfine, blockguard, capture, waitgraph,
//     directivelint) program against;
//   - Loader — a package loader that parses with go/parser and type-checks
//     with go/types using the stdlib source importer (module resolution is
//     delegated to the go command via go/build), so no external module is
//     required;
//   - RunPackage — the driver: runs analyzers over a package, converts
//     diagnostics to positioned findings, and applies //ompvet:ignore
//     suppression comments (reporting unused ones, so dead ignores cannot
//     accumulate).
//
// cmd/ompvet is the multichecker binary; internal/analysis/analysistest
// drives the testdata suites.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the pass in diagnostics and //ompvet:ignore comments.
	Name string
	// Doc is a one-paragraph description of what the pass proves.
	Doc string
	// RequiresTypes marks passes that need type information. They are
	// skipped (with a warning from the driver) on packages that failed to
	// type-check, and by single-file drivers such as `pjc -vet` that run
	// without types.
	RequiresTypes bool
	// Run executes the pass, reporting findings via pass.Reportf.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// Pkg and TypesInfo are nil when RequiresTypes is false and the driver
	// ran without type-checking (e.g. pjc -vet on a single file).
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Finding is a resolved diagnostic: position plus originating pass.
type Finding struct {
	Pass    string
	Pos     token.Position
	Message string
}

// String renders the finding in the file:line:col style of go vet.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Pass)
}

// WalkStack traverses root in source order, invoking fn for every node with
// the stack of its ancestors (outermost first, not including n itself).
// Returning false prunes the subtree.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false // subtree pruned: Inspect sends no matching pop
		}
		stack = append(stack, n)
		return true
	})
}
