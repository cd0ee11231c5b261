// Package capture analyzes closure free variables across dispatch
// boundaries: for every function literal the dispatch classifier can place
// on a definite executor (EDT or worker), it computes the variables the
// literal captures from enclosing scopes and classifies each captured
// variable's home dispatch context — the context of the scope that
// declared it.
//
// The enforcement analyzer flags the unsynchronized cross-context writes
// this exposes: a variable declared inside an EDT-dispatched block is EDT
// state (the runtime's confinement sanitizer would stamp it with the EDT's
// goroutine), so a nested worker block writing it races with every EDT
// event that touches it — and vice versa. Reads are left alone: the
// capture-a-value-then-republish idiom (worker computes, EDT block reads
// the result it was handed) is the paper's sanctioned pattern, and
// flagging it would bury the real races. Variables declared at function
// scope (no definite home) are likewise left alone — SwingWorker's
// DoInBackground/Done pairs share function-scoped state under the
// framework's happens-before edge.
package capture

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/dispatch"
)

// A capture is one variable captured by one dispatched literal.
type capture struct {
	// Kind/Site say where the capturing literal runs.
	Kind dispatch.Kind
	Site string
	// Obj is the captured variable; HomeKind/HomeSite classify the dispatch
	// context of its declaring scope (Unknown for function-scoped or
	// package-scoped variables).
	Obj      *types.Var
	HomeKind dispatch.Kind
	HomeSite string
	// Written reports whether any use inside the literal assigns to the
	// variable (assignment LHS or inc/dec).
	Written bool
	// WritePos is the position of the first writing use (valid when
	// Written).
	WritePos token.Pos
}

// captures computes every capture by a definitely-classified literal in
// the package. The classifier must come from the same pass.
func captures(pass *analysis.Pass, c *dispatch.Classifier) []capture {
	if pass.TypesInfo == nil {
		return nil
	}
	// First pass: the home dispatch context of every local variable, keyed
	// by the defining identifier's object. A variable's home is the
	// classification of the innermost classified literal enclosing its
	// declaration.
	homeKind := map[*types.Var]dispatch.Kind{}
	homeSite := map[*types.Var]string{}
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.TypesInfo.Defs[id].(*types.Var)
			if !ok || v.IsField() {
				return true
			}
			if k, site := c.Context(stack); k != dispatch.Unknown {
				homeKind[v] = k
				homeSite[v] = site
			}
			return true
		})
	}

	var caps []capture
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			kind, site := c.ClassifyLit(lit, stack)
			if kind == dispatch.Unknown {
				return true
			}
			for _, cap := range litCaptures(pass, lit) {
				cap.Kind, cap.Site = kind, site
				cap.HomeKind = homeKind[cap.Obj]
				cap.HomeSite = homeSite[cap.Obj]
				caps = append(caps, cap)
			}
			return true
		})
	}
	return caps
}

// litCaptures finds the free variables of one literal: identifiers used
// inside it whose object is a local variable declared outside it.
func litCaptures(pass *analysis.Pass, lit *ast.FuncLit) []capture {
	byObj := map[*types.Var]*capture{}
	var order []*types.Var
	analysis.WalkStack(lit.Body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-scoped variables are not captures (and have no home
		// context); a variable declared inside the literal is not free.
		if v.Parent() == nil || v.Parent().Parent() == types.Universe {
			return true
		}
		if lit.Pos() <= v.Pos() && v.Pos() < lit.End() {
			return true
		}
		cap := byObj[v]
		if cap == nil {
			cap = &capture{Obj: v}
			byObj[v] = cap
			order = append(order, v)
		}
		if !cap.Written && writesTo(id, stack) {
			cap.Written = true
			cap.WritePos = id.Pos()
		}
		return true
	})
	out := make([]capture, 0, len(order))
	for _, v := range order {
		out = append(out, *byObj[v])
	}
	return out
}

// writesTo reports whether this use of id assigns to it: an assignment
// left-hand side or an inc/dec statement.
func writesTo(id *ast.Ident, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.AssignStmt:
		for _, lhs := range parent.Lhs {
			if lhs == id {
				return true
			}
		}
	case *ast.IncDecStmt:
		return parent.X == id
	}
	return false
}

// Analyzer is the enforcement pass: it flags writes to a captured variable
// from a definite dispatch context different from the variable's definite
// home context.
var Analyzer = &analysis.Analyzer{
	Name:          "capture",
	Doc:           "flag writes to captured variables from a dispatch context other than their home context",
	RequiresTypes: true,
	Run:           run,
}

func run(pass *analysis.Pass) error {
	c := dispatch.NewClassifier(pass)
	for _, cap := range captures(pass, c) {
		if !cap.Written || cap.HomeKind == dispatch.Unknown || cap.HomeKind == cap.Kind {
			continue
		}
		pass.Reportf(cap.WritePos,
			"%s block (dispatched via %s) writes captured variable %q; its home is the %s block dispatched via %s, and the unsynchronized write races with it — republish the value through a dispatch instead",
			cap.Kind, cap.Site, cap.Obj.Name(), cap.HomeKind, cap.HomeSite)
	}
	return nil
}
