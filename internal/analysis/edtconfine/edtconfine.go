// Package edtconfine implements the ompvet pass proving the paper's widget
// confinement rule at compile time: "GUI components are not thread-safe and
// access is strictly confined to the EDT". The gui package enforces this at
// run time with checkConfinement (a panic, or a counted violation; the
// ompsan sanitizer adds a second, goroutine-stamp check); this pass turns
// the panic into a compile-time diagnostic by flagging calls to confined
// widget mutators inside a block dispatched off the EDT — a function
// literal handed to WorkerPool.Post, Runtime.Invoke of a worker target,
// ExecutorService.Execute, SwingWorker.DoInBackground, or a go statement —
// without an intervening InvokeLater / InvokeAndWait / target-virtual(edt)
// re-entry.
//
// The pass is one loop over callgraph.Effects, so it is interprocedural: a
// worker block calling a helper that calls a mutator is flagged at the
// helper call site, with the full call path from the bounded-depth
// summaries. A helper chain deeper than the summary bound is not silently
// trusted — the call is reported as unprovable instead.
package edtconfine

import (
	"go/ast"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/dispatch"
)

// Analyzer is the edtconfine pass.
var Analyzer = &analysis.Analyzer{
	Name:          "edtconfine",
	Doc:           "flag confined gui widget mutations inside blocks dispatched off the EDT",
	RequiresTypes: true,
	Run:           run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg != nil && pass.Pkg.Path() == "repro/internal/gui" {
		// The toolkit's own internals are the enforcement mechanism.
		return nil
	}
	c := dispatch.NewClassifier(pass)
	g := callgraph.New(pass, c)
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			s := g.Effects(call, stack)
			if len(s.Mutates) == 0 && !s.Truncated {
				return true
			}
			kind, site := c.Context(stack)
			if kind != dispatch.Worker {
				return true
			}
			for _, e := range s.Mutates {
				pass.Reportf(call.Pos(),
					"%s mutates a confined widget off the event-dispatch thread (%senclosing block is dispatched via %s); wrap the update in Toolkit.InvokeLater or a target virtual(edt) block",
					e.Desc, e.Via(), site)
			}
			if s.Truncated && len(s.Mutates) == 0 {
				// Never silence a chain the summary could not finish: the
				// helper might mutate confined state beyond the depth bound.
				pass.Reportf(call.Pos(),
					"cannot prove %s keeps confined widgets off this worker block (dispatched via %s): call-graph summary truncated at depth %d",
					c.Callee(call).Name(), site, callgraph.MaxDepth)
			}
			return true
		})
	}
	return nil
}
