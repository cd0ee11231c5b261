// Package dispatch classifies where a function literal will execute:
// on an event-dispatch thread (or another serial virtual target) or off it,
// on a worker pool or raw goroutine. It is the shared substrate of the
// edtconfine, blockguard and capture passes, which need to know, for a
// syntactic block, which thread group Algorithm 1 will hand it to, and of
// analysis/callgraph, which resolves callees and reads the leaf-effect
// tables (effects.go) through it.
//
// Classification is deliberately conservative. A literal is labelled only
// when the dispatch site is one of the known runtime entry points
// (Toolkit.InvokeLater, Loop.Post, WorkerPool.Post, Runtime.Invoke with a
// target name registered in the same package, pyjama.TargetBlock, SwingWorker
// fields, go statements); anything else inherits its lexical context, and a
// function declaration inherits nothing. Unknown stays unknown — the passes
// report only on definite Worker/EDT contexts, trading recall for zero
// false positives on clean code.
package dispatch

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/analysis"
)

// Kind is the execution context of a block.
type Kind int

const (
	// Unknown means no dispatch site classifies the block.
	Unknown Kind = iota
	// EDT marks blocks delivered to an event-dispatch loop or another
	// serial virtual target: the context the paper forbids blocking in.
	EDT
	// Worker marks blocks delivered to a worker pool or a fresh goroutine:
	// off the EDT, where confined widgets must not be touched.
	Worker
)

func (k Kind) String() string {
	switch k {
	case EDT:
		return "EDT"
	case Worker:
		return "worker"
	default:
		return "unknown"
	}
}

// Classifier resolves execution contexts within one package.
type Classifier struct {
	pass *analysis.Pass
	// edtNames/workerNames are virtual-target names registered in this
	// package via RegisterEDT / CreateWorker (constant names only).
	edtNames    map[string]bool
	workerNames map[string]bool
	// serialNames are worker targets created with exactly one goroutine:
	// serial virtual targets, which the never-block rule also covers.
	serialNames map[string]bool
}

// NewClassifier scans the package for virtual-target registrations and
// returns a classifier for it.
func NewClassifier(pass *analysis.Pass) *Classifier {
	c := &Classifier{
		pass:        pass,
		edtNames:    map[string]bool{},
		workerNames: map[string]bool{},
		serialNames: map[string]bool{},
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := c.Callee(call)
			if fn == nil {
				return true
			}
			switch {
			case c.IsMethod(fn, "repro/internal/core", "Runtime", "RegisterEDT"):
				if name, ok := c.stringArg(call, 0); ok {
					c.edtNames[name] = true
				}
			case c.isFunc(fn, "repro/internal/pyjama", "RegisterEDT"):
				if name, ok := c.stringArg(call, 0); ok {
					c.edtNames[name] = true
				}
			case c.IsMethod(fn, "repro/internal/core", "Runtime", "CreateWorker"),
				c.isFunc(fn, "repro/internal/pyjama", "CreateWorker"):
				if name, ok := c.stringArg(call, 0); ok {
					c.workerNames[name] = true
					if m, ok := c.intArg(call, 1); ok && m == 1 {
						c.serialNames[name] = true
					}
				}
			}
			return true
		})
	}
	return c
}

// Context returns the execution context of the node whose ancestor stack is
// given (outermost first): the classification of the innermost classifiable
// enclosing function literal, plus a human-readable description of the
// dispatch site. Unknown when no enclosing literal classifies.
func (c *Classifier) Context(stack []ast.Node) (Kind, string) {
	for i := len(stack) - 1; i >= 0; i-- {
		lit, ok := stack[i].(*ast.FuncLit)
		if !ok {
			if _, isDecl := stack[i].(*ast.FuncDecl); isDecl {
				return Unknown, ""
			}
			continue
		}
		if k, site := c.ClassifyLit(lit, stack[:i]); k != Unknown {
			return k, site
		}
	}
	return Unknown, ""
}

// ClassifyLit classifies one function literal from its immediate syntactic
// parent (stack is the literal's ancestor chain, outermost first).
func (c *Classifier) ClassifyLit(lit *ast.FuncLit, stack []ast.Node) (Kind, string) {
	if len(stack) == 0 {
		return Unknown, ""
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.CallExpr:
		// A literal invoked directly — go func(){...}() or func(){...}() —
		// is classified by the call's own parent.
		if parent.Fun == lit {
			if len(stack) >= 2 {
				if _, isGo := stack[len(stack)-2].(*ast.GoStmt); isGo {
					return Worker, "go statement"
				}
			}
			return Unknown, ""
		}
		return c.classifyCallArg(parent, lit)
	case *ast.KeyValueExpr:
		// SwingWorker{DoInBackground: ...} and reactor.HandlerFuncs{OnReadable: ...}
		if key, ok := parent.Key.(*ast.Ident); ok && len(stack) >= 2 {
			if comp, ok := stack[len(stack)-2].(*ast.CompositeLit); ok {
				switch {
				case c.isSwingWorkerType(comp):
					return swingWorkerField(key.Name)
				case c.isHandlerFuncsType(comp):
					return reactorHandlerField(key.Name)
				}
			}
		}
	case *ast.AssignStmt:
		// w.DoInBackground = func(...) {...} / h.OnReadable = func(...) {...}
		for i, rhs := range parent.Rhs {
			if rhs != lit || i >= len(parent.Lhs) {
				continue
			}
			sel, ok := parent.Lhs[i].(*ast.SelectorExpr)
			if !ok {
				continue
			}
			switch {
			case c.isSwingWorkerExpr(sel.X):
				return swingWorkerField(sel.Sel.Name)
			case c.isHandlerFuncsExpr(sel.X):
				return reactorHandlerField(sel.Sel.Name)
			}
		}
	}
	return Unknown, ""
}

// swingWorkerField maps a SwingWorker field name to where it runs.
func swingWorkerField(name string) (Kind, string) {
	switch name {
	case "DoInBackground":
		return Worker, "SwingWorker.DoInBackground"
	case "Process", "Done":
		return EDT, "SwingWorker." + name
	}
	return Unknown, ""
}

// reactorHandlerField maps a reactor.HandlerFuncs field to where it runs:
// every readiness callback is confined to the reactor's poll goroutine,
// which the never-block rule covers exactly like an EDT — a blocked
// callback stalls every registered connection at once.
func reactorHandlerField(name string) (Kind, string) {
	switch name {
	case "OnReadable", "OnDrained", "OnClose":
		return EDT, "reactor.HandlerFuncs." + name
	}
	return Unknown, ""
}

// classifyCallArg classifies a literal appearing as a direct argument of
// call. A literal nested deeper inside an argument expression is classified
// by its own parent, not by this call.
func (c *Classifier) classifyCallArg(call *ast.CallExpr, lit *ast.FuncLit) (Kind, string) {
	direct := false
	for _, arg := range call.Args {
		if arg == lit {
			direct = true
			break
		}
	}
	if !direct {
		return Unknown, ""
	}
	fn := c.Callee(call)
	if fn == nil {
		return Unknown, ""
	}
	if desc, kind, ok := c.dispatchByCallee(call, fn); ok {
		return kind, desc
	}
	return Unknown, ""
}

// DispatchSite reports whether call hands work to another executor, and
// describes it. Used by blockguard's lock-held-across-dispatch check.
func (c *Classifier) DispatchSite(call *ast.CallExpr) (string, bool) {
	fn := c.Callee(call)
	if fn == nil {
		return "", false
	}
	if desc, _, ok := c.dispatchByCallee(call, fn); ok {
		return desc, true
	}
	return "", false
}

// dispatchByCallee is the table of runtime dispatch entry points.
func (c *Classifier) dispatchByCallee(call *ast.CallExpr, fn *types.Func) (string, Kind, bool) {
	switch {
	// --- EDT deliveries -------------------------------------------------
	case c.IsMethod(fn, "repro/internal/gui", "Toolkit", "InvokeLater"),
		c.IsMethod(fn, "repro/internal/gui", "Toolkit", "InvokeAndWait"):
		return "Toolkit." + fn.Name(), EDT, true
	case c.IsMethod(fn, "repro/internal/eventloop", "Loop", "Post"),
		c.IsMethod(fn, "repro/internal/eventloop", "Loop", "PostLabeled"),
		c.IsMethod(fn, "repro/internal/eventloop", "Loop", "InvokeAndWait"):
		return "Loop." + fn.Name(), EDT, true
	case c.IsMethod(fn, "repro/internal/gui", "Toolkit", "NewButton"),
		c.IsMethod(fn, "repro/internal/gui", "Button", "SetHandler"):
		// Click handlers are dispatched on the EDT.
		return fn.Name() + " handler", EDT, true
	case c.IsMethod(fn, "repro/internal/reactor", "Reactor", "Post"):
		// Posts hop onto the reactor's poll goroutine — a serial confined
		// context with EDT blocking rules.
		return "reactor Post", EDT, true
	case c.IsMethod(fn, "repro/internal/reactor", "Reactor", "Listen"):
		// The accept callback runs on the poll goroutine.
		return "Reactor.Listen accept callback", EDT, true
	case c.IsMethod(fn, "repro/internal/netloop", "Server", "HandleFunc"),
		c.IsMethod(fn, "repro/internal/netloop", "Server", "OnConnect"),
		c.IsMethod(fn, "repro/internal/netloop", "Server", "OnClose"):
		// netloop handlers are dispatched on the server's event loop on
		// both transports — including the reactor transport enabled by
		// EnableReactor, whose readiness callbacks re-post line events to
		// the loop.
		return "netloop Server." + fn.Name() + " handler", EDT, true

	// --- worker deliveries ----------------------------------------------
	case c.IsMethod(fn, "repro/internal/executor", "WorkerPool", "Post"):
		return "WorkerPool.Post", Worker, true
	case c.IsMethod(fn, "repro/internal/gui", "ExecutorService", "Execute"),
		c.isFunc(fn, "repro/internal/gui", "Submit"):
		return "ExecutorService." + fn.Name(), Worker, true

	// --- target-name dispatch: the destination decides -------------------
	case c.IsMethod(fn, "repro/internal/core", "Runtime", "Invoke"),
		c.IsMethod(fn, "repro/internal/core", "Runtime", "InvokeNamed"):
		return c.targetDispatch(call, fn.Name(), 0)
	case c.IsMethod(fn, "repro/internal/core", "Runtime", "InvokeCtx"):
		return c.targetDispatch(call, fn.Name(), 1)
	case c.IsMethod(fn, "repro/internal/core", "Runtime", "InvokeIf"):
		return c.targetDispatch(call, fn.Name(), 1)
	case c.isFunc(fn, "repro/internal/pyjama", "TargetBlock"):
		return c.targetDispatch(call, fn.Name(), 0)
	case c.isFunc(fn, "repro/internal/pyjama", "TargetBlockIf"):
		return c.targetDispatch(call, fn.Name(), 1)
	}
	return "", Unknown, false
}

// targetDispatch classifies a Runtime.Invoke / pyjama.TargetBlock call by
// the constant target name at argument index nameArg.
func (c *Classifier) targetDispatch(call *ast.CallExpr, callee string, nameArg int) (string, Kind, bool) {
	name, ok := c.stringArg(call, nameArg)
	if !ok {
		return "", Unknown, false
	}
	desc := callee + "(" + name + ")"
	switch {
	case c.edtNames[name] || c.serialNames[name]:
		return desc, EDT, true
	case c.workerNames[name]:
		return desc, Worker, true
	}
	return "", Unknown, false
}

// --- type plumbing -------------------------------------------------------

// Callee resolves the *types.Func a call invokes (nil for indirect calls,
// built-ins, or when type information is absent).
func (c *Classifier) Callee(call *ast.CallExpr) *types.Func {
	if c.pass.TypesInfo == nil {
		return nil
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := c.pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// isFunc reports whether fn is the package-level function path.name.
func (c *Classifier) isFunc(fn *types.Func, path, name string) bool {
	return fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == path &&
		(fn.Type().(*types.Signature)).Recv() == nil
}

// IsMethod reports whether fn is a method named name on the (possibly
// pointer-to, possibly instantiated-generic) named type path.typeName.
func (c *Classifier) IsMethod(fn *types.Func, path, typeName, name string) bool {
	if fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), path, typeName)
}

// isNamed reports whether t (after dereferencing) is the named type
// path.name.
func isNamed(t types.Type, path, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// isSwingWorkerType reports whether a composite literal builds a
// gui.SwingWorker.
func (c *Classifier) isSwingWorkerType(comp *ast.CompositeLit) bool {
	if c.pass.TypesInfo == nil {
		return false
	}
	tv, ok := c.pass.TypesInfo.Types[comp]
	return ok && isNamed(tv.Type, "repro/internal/gui", "SwingWorker")
}

// isSwingWorkerExpr reports whether expr has type (*)gui.SwingWorker.
func (c *Classifier) isSwingWorkerExpr(expr ast.Expr) bool {
	if c.pass.TypesInfo == nil {
		return false
	}
	tv, ok := c.pass.TypesInfo.Types[expr]
	return ok && isNamed(tv.Type, "repro/internal/gui", "SwingWorker")
}

// isHandlerFuncsType reports whether a composite literal builds a
// reactor.HandlerFuncs.
func (c *Classifier) isHandlerFuncsType(comp *ast.CompositeLit) bool {
	if c.pass.TypesInfo == nil {
		return false
	}
	tv, ok := c.pass.TypesInfo.Types[comp]
	return ok && isNamed(tv.Type, "repro/internal/reactor", "HandlerFuncs")
}

// isHandlerFuncsExpr reports whether expr has type (*)reactor.HandlerFuncs.
func (c *Classifier) isHandlerFuncsExpr(expr ast.Expr) bool {
	if c.pass.TypesInfo == nil {
		return false
	}
	tv, ok := c.pass.TypesInfo.Types[expr]
	return ok && isNamed(tv.Type, "repro/internal/reactor", "HandlerFuncs")
}

// stringArg returns the constant string value of call argument i.
func (c *Classifier) stringArg(call *ast.CallExpr, i int) (string, bool) {
	v := c.constArg(call, i)
	if v == nil || v.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(v), true
}

// intArg returns the constant integer value of call argument i.
func (c *Classifier) intArg(call *ast.CallExpr, i int) (int64, bool) {
	v := c.constArg(call, i)
	if v == nil || v.Kind() != constant.Int {
		return 0, false
	}
	n, ok := constant.Int64Val(v)
	return n, ok
}

func (c *Classifier) constArg(call *ast.CallExpr, i int) constant.Value {
	if c.pass.TypesInfo == nil || i >= len(call.Args) {
		return nil
	}
	tv, ok := c.pass.TypesInfo.Types[call.Args[i]]
	if !ok {
		return nil
	}
	return tv.Value
}
