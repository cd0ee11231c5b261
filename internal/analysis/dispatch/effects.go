package dispatch

// This file holds the leaf-effect tables: which calls block, and which
// calls mutate EDT-confined state. They started life inside the blockguard
// and edtconfine passes; they live on the Classifier now so the
// interprocedural call-graph summaries (analysis/callgraph) and the
// syntactic passes answer "is this call a blocking/mutating leaf?" from the
// same source of truth.

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// confinedMutators lists the mutating methods of each confined widget type —
// the methods funnelling into widget.mutate, which calls checkConfinement.
var confinedMutators = map[string]map[string]bool{
	"Label":       {"SetText": true},
	"ProgressBar": {"SetValue": true},
	"Button":      {"SetHandler": true},
	"TextArea":    {"Append": true, "Clear": true},
	"Frame":       {"SetTitle": true, "SetVisible": true, "Add": true},
}

// ConfinedMutator reports whether call invokes a confined widget mutator,
// naming the widget type and method.
func (c *Classifier) ConfinedMutator(call *ast.CallExpr) (widget, method string, ok bool) {
	fn := c.Callee(call)
	if fn == nil {
		return "", "", false
	}
	sig, sok := fn.Type().(*types.Signature)
	if !sok || sig.Recv() == nil {
		return "", "", false
	}
	for w, methods := range confinedMutators {
		if methods[fn.Name()] && isNamed(sig.Recv().Type(), "repro/internal/gui", w) {
			return w, fn.Name(), true
		}
	}
	return "", "", false
}

// BlockingCall reports whether call is one of the blocking operations the
// EDT must not perform, with a description for the diagnostic.
//
// Runtime.AwaitCompletion / AwaitDone are deliberately NOT listed: await is
// the paper's logical barrier — the encountering thread keeps processing
// its own queue while it waits, which is exactly the sanctioned alternative
// to the calls reported here.
func (c *Classifier) BlockingCall(call *ast.CallExpr) (string, bool) {
	fn := c.Callee(call)
	if fn == nil {
		return "", false
	}
	switch {
	case c.isFunc(fn, "time", "Sleep"):
		return "time.Sleep", true
	case c.IsMethod(fn, "repro/internal/executor", "Completion", "Wait"):
		return "Completion.Wait", true
	case c.IsMethod(fn, "repro/internal/core", "Runtime", "Wait"),
		c.IsMethod(fn, "repro/internal/core", "Runtime", "WaitTag"):
		return "Runtime." + fn.Name(), true
	case c.isFunc(fn, "repro/internal/pyjama", "WaitFor"):
		return "pyjama.WaitFor", true
	case c.IsMethod(fn, "sync", "WaitGroup", "Wait"):
		return "sync.WaitGroup.Wait", true
	case c.IsMethod(fn, "repro/internal/gui", "SwingWorker", "Get"),
		c.IsMethod(fn, "repro/internal/gui", "Future", "Get"):
		return fn.Name() + " (blocking join)", true
	case c.IsMethod(fn, "repro/internal/gui", "Toolkit", "InvokeAndWait"),
		c.IsMethod(fn, "repro/internal/eventloop", "Loop", "InvokeAndWait"):
		return "InvokeAndWait", true
	case c.IsMethod(fn, "repro/internal/core", "Runtime", "Invoke"):
		return c.syncWorkerInvoke(call, "Runtime.Invoke", 0, 1)
	case c.isFunc(fn, "repro/internal/pyjama", "TargetBlock"):
		return c.syncWorkerInvoke(call, "pyjama.TargetBlock", 0, 1)
	case c.isFunc(fn, "repro/internal/pyjama", "TargetBlockIf"):
		return c.syncWorkerInvoke(call, "pyjama.TargetBlockIf", 1, 2)
	}
	return "", false
}

// syncWorkerInvoke flags Invoke/TargetBlock calls that synchronously wait
// (mode Wait, the zero Mode) on a known worker target: a blocking
// cross-target join. Dispatch to an EDT-registered name is left alone —
// thread-context awareness runs it inline — as is any non-constant mode.
func (c *Classifier) syncWorkerInvoke(call *ast.CallExpr, callee string, nameArg, modeArg int) (string, bool) {
	mode := c.constArg(call, modeArg)
	if mode == nil || mode.Kind() != constant.Int {
		return "", false
	}
	if v, ok := constant.Int64Val(mode); !ok || v != 0 { // 0 == core.Wait
		return "", false
	}
	name := ""
	if v := c.constArg(call, nameArg); v != nil && v.Kind() == constant.String {
		name = constant.StringVal(v)
	}
	if !c.workerNames[name] {
		return "", false
	}
	return callee + "(" + name + ", mode Wait)", true
}
