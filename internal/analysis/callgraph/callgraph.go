// Package callgraph builds a per-package static call graph and
// bounded-depth effect summaries over it, turning the syntactic ompvet
// passes interprocedural: edtconfine and blockguard consult a function's
// summary to see through helper chains — a worker block calling
// updateStatus calling (*gui.Label).SetText is flagged at the call site
// with the full path, not silently missed because the mutation is two
// frames away.
//
// The graph is CHA-flavoured but deliberately modest: nodes are the
// package's own function and method declarations, edges are static calls
// resolved through go/types (an *ast.Ident or *ast.SelectorExpr whose Uses
// entry is a *types.Func declared in this package). Indirect calls —
// through interface values, function-typed variables, or cross-package
// helpers — contribute no edge and no effect: the same "unknown stays
// unknown" bargain the dispatch classifier makes, trading recall for zero
// false positives on clean code.
//
// Summaries are memoized per function and composed bottom-up. Two effect
// classes are tracked, each answering one pass's question:
//
//   - Blocks: calls the EDT must never make (time.Sleep, Completion.Wait,
//     InvokeAndWait, mode-Wait worker invokes, bare channel receives) —
//     blockguard's;
//   - Mutates: confined gui widget mutators — edtconfine's.
//
// Every effect carries the helper path from the summarized function to the
// leaf. Composition is depth-bounded (MaxDepth): an effect whose path
// would exceed the bound is dropped and the summary is marked Truncated,
// as is any summary involved in recursion. Truncation is loud, never
// silent — the passes report a conservative "cannot prove" finding when a
// definite EDT/worker context calls a truncated helper, so chains longer
// than the bound degrade to an unknown-finding, not to a clean bill.
//
// The passes ask one question, Effects: what can this call or channel
// receive block on or mutate, and through which helper path.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/dispatch"
)

// MaxDepth bounds how many helper frames a summary follows. Effects deeper
// than this are dropped and the summary is marked Truncated.
const MaxDepth = 5

// Effect is one leaf operation reachable from a function, with the helper
// chain that reaches it.
type Effect struct {
	// Desc describes the leaf operation (e.g. "time.Sleep",
	// "(*gui.Label).SetText", "WorkerPool.Post").
	Desc string
	// Pos is the position of the leaf call itself.
	Pos token.Pos
	// Path is the chain of same-package callees from the summarized
	// function (exclusive) to the leaf (exclusive): empty for a direct
	// effect, ["helperA", "helperB"] when the leaf sits two frames down.
	Path []string
}

// Via renders the helper chain as the prefix of a diagnostic's parenthesis:
// "call path a > b; ", or "" for a leaf.
func (e Effect) Via() string {
	if len(e.Path) == 0 {
		return ""
	}
	return "call path " + strings.Join(e.Path, " > ") + "; "
}

// Summary is the bounded-depth effect set of one function, or of one call
// site as Effects reports it.
type Summary struct {
	// Blocks lists reachable blocking operations (the never-block rule).
	Blocks []Effect
	// Mutates lists reachable confined-widget mutations (the confinement
	// rule).
	Mutates []Effect
	// Truncated reports that the summary may be incomplete: a helper chain
	// exceeded MaxDepth or ran into recursion. Passes must treat a
	// truncated summary as "cannot prove clean", not as clean.
	Truncated bool
}

// Graph is the package call graph plus the summary cache.
type Graph struct {
	pass *analysis.Pass
	c    *dispatch.Classifier

	// decls maps each function object declared in this package to its
	// declaration; the edge relation is implicit (resolved per call).
	decls map[*types.Func]*ast.FuncDecl

	sums   map[*types.Func]*Summary
	inProg map[*types.Func]bool
}

// New builds the call graph for pass's package. The classifier supplies
// callee resolution and the leaf-effect tables; both must come from the
// same pass.
func New(pass *analysis.Pass, c *dispatch.Classifier) *Graph {
	g := &Graph{
		pass:   pass,
		c:      c,
		decls:  map[*types.Func]*ast.FuncDecl{},
		sums:   map[*types.Func]*Summary{},
		inProg: map[*types.Func]bool{},
	}
	if pass.TypesInfo == nil {
		return g
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				g.decls[fn] = fd
			}
		}
	}
	return g
}

// Effects answers, for a call or a channel receive n whose ancestors are
// stack, what it can block on and what confined state it can mutate. A
// leaf — a blocking call, a confined mutator, a receive outside select — is
// its own effect with an empty path. A call to a same-package helper
// contributes the helper's summary with the helper's name in front of each
// path, and its truncation mark; where the call is a leaf of one class, the
// leaf stands for that class. Anything else has no effect.
func (g *Graph) Effects(n ast.Node, stack []ast.Node) Summary {
	s := g.leaf(n, stack)
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return s
	}
	fn := g.c.Callee(call)
	if g.decls[fn] == nil {
		return s
	}
	cs := g.summaryOf(fn)
	if s.Blocks == nil {
		s.Blocks = composeEffects(nil, fn.Name(), cs.Blocks, nil)
	}
	if s.Mutates == nil {
		s.Mutates = composeEffects(nil, fn.Name(), cs.Mutates, nil)
	}
	s.Truncated = cs.Truncated
	return s
}

// leaf returns the effects of n itself, ignoring any callee's body.
func (g *Graph) leaf(n ast.Node, stack []ast.Node) Summary {
	var s Summary
	switch n := n.(type) {
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !insideSelect(stack) {
			s.Blocks = []Effect{{Desc: "channel receive", Pos: n.Pos()}}
		}
	case *ast.CallExpr:
		if desc, ok := g.c.BlockingCall(n); ok {
			s.Blocks = []Effect{{Desc: desc, Pos: n.Pos()}}
		}
		if widget, method, ok := g.c.ConfinedMutator(n); ok {
			s.Mutates = []Effect{{Desc: "(*gui." + widget + ")." + method, Pos: n.Pos()}}
		}
	}
	return s
}

// summaryOf computes (and memoizes) the bounded-depth effect summary of a
// function declared in this package.
func (g *Graph) summaryOf(fn *types.Func) *Summary {
	if s, ok := g.sums[fn]; ok {
		return s
	}
	if g.inProg[fn] {
		// Recursion: the cycle member being recomputed reports itself
		// truncated; the caller composing it inherits the mark.
		return &Summary{Truncated: true}
	}
	g.inProg[fn] = true
	s := g.summarize(fn, g.decls[fn])
	delete(g.inProg, fn)
	g.sums[fn] = s
	return s
}

// summarize walks one function body collecting its leaf effects and
// composing callee summaries, honouring the function's thread-context
// guards.
func (g *Graph) summarize(fn *types.Func, decl *ast.FuncDecl) *Summary {
	s := &Summary{}
	// Each distinct callee composes each effect class at most once — but
	// per class, not per callee: a guarded call site strips a class, and a
	// later unguarded call to the same callee must still contribute it
	// (`if !p.Owns() { helper() }; helper()` keeps helper's Blocks).
	type composed struct{ blocks, mutates bool }
	seen := map[*types.Func]*composed{}
	guards := ownsGuards(g.c, decl.Body)
	analysis.WalkStack(decl.Body, func(n ast.Node, stack []ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && !immediatelyInvoked(lit, stack) {
			// A nested literal's effects belong to whatever context the
			// literal is dispatched into, not to this function's callers —
			// unless it is invoked on the spot, in which case it is just an
			// inline scope.
			return false
		}
		// A guard around a leaf or a call site guards everything reached
		// through it.
		offHome, onHome := guards.offHome(n.Pos()), guards.onHome(n.Pos())
		leaf := g.leaf(n, stack)
		if !offHome {
			s.Blocks = append(s.Blocks, leaf.Blocks...)
		}
		if !onHome {
			s.Mutates = append(s.Mutates, leaf.Mutates...)
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := g.c.Callee(call)
		if g.decls[callee] == nil || callee == fn {
			return true
		}
		st := seen[callee]
		if st == nil {
			st = &composed{}
			seen[callee] = st
		}
		cs := g.summaryOf(callee)
		s.Truncated = s.Truncated || cs.Truncated
		if !offHome && !st.blocks {
			s.Blocks = composeEffects(s.Blocks, callee.Name(), cs.Blocks, &s.Truncated)
			st.blocks = true
		}
		if !onHome && !st.mutates {
			s.Mutates = composeEffects(s.Mutates, callee.Name(), cs.Mutates, &s.Truncated)
			st.mutates = true
		}
		return true
	})
	return s
}

// composeEffects appends src to dst with step in front of each path. With
// truncated non-nil it enforces the depth bound, dropping the effects that
// would exceed it and setting *truncated.
func composeEffects(dst []Effect, step string, src []Effect, truncated *bool) []Effect {
	for _, e := range src {
		if truncated != nil && len(e.Path)+1 > MaxDepth {
			*truncated = true
			continue
		}
		path := make([]string, 0, len(e.Path)+1)
		path = append(path, step)
		path = append(path, e.Path...)
		dst = append(dst, Effect{Desc: e.Desc, Pos: e.Pos, Path: path})
	}
	return dst
}

// immediatelyInvoked reports whether lit is called on the spot
// (func(){...}()), making it an inline scope rather than a dispatched
// block.
func immediatelyInvoked(lit *ast.FuncLit, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok || call.Fun != lit {
		return false
	}
	// go func(){...}() dispatches to a fresh goroutine: not inline.
	if len(stack) >= 2 {
		if _, isGo := stack[len(stack)-2].(*ast.GoStmt); isGo {
			return false
		}
	}
	return true
}

// insideSelect reports whether the node is within a select statement (the
// non-blocking way to touch channels), without escaping the current
// function body.
func insideSelect(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.SelectStmt:
			return true
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}
