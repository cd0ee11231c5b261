// Package blockguard implements the ompvet pass proving the paper's other
// EDT rule: the event-dispatch thread must never block. Inside any block
// destined for an EDT or serial virtual target (Toolkit.InvokeLater,
// Loop.Post, button/timer handlers, Runtime.Invoke of an EDT-registered
// name, SwingWorker.Process/Done, reactor callbacks) the pass flags:
//
//   - blocking joins: Completion.Wait, Runtime.Wait/WaitTag, pyjama.WaitFor,
//     sync.WaitGroup.Wait, SwingWorker.Get, Future.Get;
//   - synchronous re-dispatch: Toolkit/Loop.InvokeAndWait, and
//     Invoke/TargetBlock of a worker target in mode Wait;
//   - time.Sleep;
//   - bare channel receives (outside select);
//   - sync.Mutex/RWMutex.Lock held across a dispatch call.
//
// The pass is one loop over callgraph.Effects, which answers for each call
// and channel receive what it can block on: a leaf from the classifier's
// blocking table (Classifier.BlockingCall) or, through a same-package
// helper, the helper's bounded-depth summary. An EDT block calling a
// helper that blocks is flagged at the helper call site with the full call
// path, and a chain deeper than the bound is reported as unprovable rather
// than silently trusted.
//
// Runtime.AwaitCompletion / AwaitDone are deliberately NOT flagged: await is
// the paper's logical barrier — the encountering thread keeps processing its
// own queue while it waits, which is exactly the sanctioned alternative to
// the calls this pass reports.
package blockguard

import (
	"go/ast"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/dispatch"
)

// Analyzer is the blockguard pass.
var Analyzer = &analysis.Analyzer{
	Name:          "blockguard",
	Doc:           "flag blocking operations inside blocks dispatched to an EDT or serial virtual target",
	RequiresTypes: true,
	Run:           run,
}

func run(pass *analysis.Pass) error {
	c := dispatch.NewClassifier(pass)
	g := callgraph.New(pass, c)
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			if block, ok := n.(*ast.BlockStmt); ok {
				checkLockAcrossDispatch(pass, c, block, stack)
				return true
			}
			s := g.Effects(n, stack)
			if len(s.Blocks) == 0 && !s.Truncated {
				return true
			}
			kind, site := c.Context(stack)
			if kind != dispatch.EDT {
				return true
			}
			advice := "offload with a worker target or use the await logical barrier"
			if _, recv := n.(*ast.UnaryExpr); recv {
				advice = "deliver the value with a further Post instead"
			}
			for _, e := range s.Blocks {
				pass.Reportf(n.Pos(),
					"%s blocks the event-dispatch thread (%senclosing block is dispatched via %s); %s",
					e.Desc, e.Via(), site, advice)
			}
			if s.Truncated && len(s.Blocks) == 0 {
				pass.Reportf(n.Pos(),
					"cannot prove %s never blocks this event-dispatch block (dispatched via %s): call-graph summary truncated at depth %d",
					c.Callee(n.(*ast.CallExpr)).Name(), site, callgraph.MaxDepth)
			}
			return true
		})
	}
	return nil
}

// checkLockAcrossDispatch scans one EDT-context block for a Mutex.Lock that
// is still held when a dispatch call runs: the dispatched block (or any EDT
// work needing the lock) then contends with a lock owned by the EDT.
func checkLockAcrossDispatch(pass *analysis.Pass, c *dispatch.Classifier, block *ast.BlockStmt, stack []ast.Node) {
	if kind, _ := c.Context(stack); kind != dispatch.EDT {
		return
	}
	// held maps the receiver expression text of a locked mutex to the Lock
	// call position; deferred unlocks keep the lock held to block end.
	type lockSite struct {
		pos      ast.Node
		receiver string
	}
	var held []lockSite
	for _, st := range block.List {
		switch st := st.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if recv, isLock, isUnlock := mutexLockCall(pass, c, call); recv != "" {
					if isLock {
						held = append(held, lockSite{pos: call, receiver: recv})
						continue
					}
					if isUnlock {
						for i := len(held) - 1; i >= 0; i-- {
							if held[i].receiver == recv {
								held = append(held[:i], held[i+1:]...)
								break
							}
						}
						continue
					}
				}
				if len(held) > 0 {
					if desc, ok := c.DispatchSite(call); ok {
						pass.Reportf(held[len(held)-1].pos.Pos(),
							"mutex locked on the event-dispatch thread is still held across %s; unlock before dispatching or move the critical section off the EDT",
							desc)
						held = held[:len(held)-1]
					}
				}
			}
		case *ast.DeferStmt:
			// defer mu.Unlock(): the lock stays held for the rest of the
			// block; nothing to update.
			continue
		}
	}
}

// mutexLockCall identifies sync.Mutex/RWMutex Lock/Unlock calls, returning
// the receiver's source-position key.
func mutexLockCall(pass *analysis.Pass, c *dispatch.Classifier, call *ast.CallExpr) (recv string, isLock, isUnlock bool) {
	fn := c.Callee(call)
	if fn == nil {
		return "", false, false
	}
	isMutex := c.IsMethod(fn, "sync", "Mutex", fn.Name()) || c.IsMethod(fn, "sync", "RWMutex", fn.Name())
	if !isMutex {
		return "", false, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	key := exprKey(pass, sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return key, true, false
	case "Unlock", "RUnlock":
		return key, false, true
	}
	return "", false, false
}

// exprKey renders a (simple) receiver expression as a comparison key.
func exprKey(pass *analysis.Pass, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(pass, e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(pass, e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + exprKey(pass, e.X)
	}
	return ""
}
