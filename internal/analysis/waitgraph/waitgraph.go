// Package waitgraph implements the ompvet pass that builds the static
// wait-for graph of a package and reports cycles — the deadlocks the
// paper's Algorithm 1 cannot side-step. Thread-context awareness makes a
// target block *self*-dispatch safe, and the await logical barrier keeps an
// awaiting thread useful, but a plain wait(tag) is a suspension: if target
// A's blocks wait on a tag scheduled on target B while B's blocks wait on a
// tag scheduled on A, both pools can end up entirely parked in WaitTag with
// nobody left to run the tagged blocks.
//
// Nodes are virtual-target names. The pass gathers:
//
//   - tag definitions: `//#omp target virtual(T) name_as(tag)` directives,
//     Runtime.InvokeNamed(T, tag, ...) and pyjama.TargetBlock(T, NameAs,
//     tag, ...) call sites with constant arguments;
//   - waits: `//#omp wait(tag)` directives, Runtime.WaitTag/Wait and
//     pyjama.WaitFor call sites, attributed to the innermost enclosing
//     target block (directive block or dispatched function literal);
//
// and reports (1) wait cycles, including a target waiting on a tag
// scheduled on itself, and (2) waits on tags no site ever defines —
// Runtime.WaitTag returns immediately on an unknown tag, so such a wait is
// a silent no-op and almost certainly a typo.
//
// Tags travel one level through function parameters (PR 9): a helper
// `func join(tag string) { rt.WaitTag(tag) }` makes every `join("phase")`
// call a wait on "phase" attributed at the call site, so the enclosing
// target region is the caller's; the same applies to InvokeNamed /
// TargetBlock name_as definitions whose tag is a parameter. Propagation is
// deliberately single-hop — a helper forwarding its parameter to another
// helper is not followed — and matches helpers by name (sharpened to
// same-package functions when type information is available).
//
// The pass is purely syntactic (type information sharpens call-site
// matching but is optional), so `pjc -vet` can run it on a single
// un-type-checked file.
package waitgraph

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/directive"
)

// Analyzer is the waitgraph pass.
var Analyzer = &analysis.Analyzer{
	Name: "waitgraph",
	Doc:  "report cycles and undefined tags in the static name_as/wait dependency graph",
	Run:  run,
}

// region is a source range whose statements execute on a named target.
type region struct {
	target     string
	start, end token.Pos
}

// waitSite is one wait occurrence.
type waitSite struct {
	pos  token.Pos
	tags []string
}

// edge is one wait-for dependency: from's blocks wait on a tag scheduled on
// to.
type edge struct {
	from, to string
	tag      string
	pos      token.Pos
}

// paramDefine records that a helper function schedules blocks on target
// under the tag passed as its parameter #tagIdx.
type paramDefine struct {
	target string
	tagIdx int
}

// graph accumulates the package-wide wait-for structure.
type graph struct {
	pass    *analysis.Pass
	defines map[string]map[string]bool // tag -> defining targets
	regions []region
	waits   []waitSite

	// paramWaits maps a helper function name to the parameter indices it
	// waits on; paramDefines to the name_as definitions it performs with a
	// parameter tag. Both are materialized at constant-string call sites in
	// a second pass over the files.
	paramWaits   map[string][]int
	paramDefines map[string][]paramDefine
}

func run(pass *analysis.Pass) error {
	g := &graph{
		pass:         pass,
		defines:      map[string]map[string]bool{},
		paramWaits:   map[string][]int{},
		paramDefines: map[string][]paramDefine{},
	}
	for _, f := range pass.Files {
		g.collectDirectives(f)
		g.collectCalls(f)
		g.collectParamTags(f)
	}
	// Materialize after all files are collected: a helper in one file may
	// be called from another.
	for _, f := range pass.Files {
		g.materializeParamCalls(f)
	}
	g.report()
	return nil
}

// define records that tag's blocks are scheduled on target.
func (g *graph) define(tag, target string) {
	if tag == "" {
		return
	}
	m := g.defines[tag]
	if m == nil {
		m = map[string]bool{}
		g.defines[tag] = m
	}
	if target != "" {
		m[target] = true
	}
}

// --- directive comments --------------------------------------------------

// collectDirectives records every wait directive, and the block and name_as
// tag of every virtual target directive, as directive.Bind binds them — the
// rule pjc translates by.
func (g *graph) collectDirectives(f *ast.File) {
	for _, s := range directive.Bind(g.pass.Fset, f) {
		d := s.Directive
		switch {
		case d == nil:
			// A parse error is directivelint's department.
		case d.Kind == directive.KindWait:
			g.waits = append(g.waits, waitSite{pos: s.Comment.Pos(), tags: d.Clause(directive.ClauseWait).Args})
		case d.Kind == directive.KindTarget && s.Stmt != nil && d.TargetName() != "":
			// A device target has no virtual wait-for semantics.
			name := d.TargetName()
			g.regions = append(g.regions, region{target: name, start: s.Stmt.Pos(), end: s.Stmt.End()})
			if mode, tag := d.SchedulingMode(); mode == directive.ClauseNameAs {
				g.define(tag, name)
			}
		}
	}
}

// --- call sites ----------------------------------------------------------

// callee describes one runtime entry point the graph reads: which argument
// names the target, the name_as mode, the tag and the dispatched block.
type callee struct {
	pyjama   bool // a pyjama facade function; otherwise a *core.Runtime method
	strict   bool // matched only with type information: ".Wait" is too common (WaitGroup, Completion) to match by name
	wait     bool // waits on its tags; otherwise dispatches a block to its target
	variadic bool // every argument is a tag
	// Argument indices. mode < 0: the call always names its tag, which must
	// then resolve like the target; tag < 0: the call names no tag.
	target, mode, tag, lit int
}

var callees = map[string]callee{
	"InvokeNamed":   {target: 0, mode: -1, tag: 1, lit: 2},
	"Invoke":        {target: 0, mode: -1, tag: -1, lit: 2},
	"TargetBlock":   {pyjama: true, target: 0, mode: 1, tag: 2, lit: 3},
	"TargetBlockIf": {pyjama: true, target: 1, mode: 2, tag: 3, lit: 4},
	"WaitTag":       {wait: true, tag: 0},
	"WaitFor":       {pyjama: true, wait: true, variadic: true},
	"Wait":          {strict: true, wait: true, variadic: true},
}

// lookup returns the table entry of call; with type information the
// receiver or package must match too.
func (g *graph) lookup(call *ast.CallExpr) (callee, bool) {
	name := calleeName(call)
	c, ok := callees[name]
	switch {
	case !ok:
		return c, false
	case c.pyjama:
		return c, g.isPyjamaFunc(call, name)
	case c.strict:
		return c, g.isRuntimeMethodStrict(call, name)
	}
	return c, g.isRuntimeMethod(call, name)
}

// tagArgs returns the indices of a wait call's tag arguments.
func (c callee) tagArgs(call *ast.CallExpr) []int {
	if !c.variadic {
		return []int{c.tag}
	}
	idx := make([]int, len(call.Args))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// names reports whether a dispatch call schedules its block under its tag:
// always for InvokeNamed, in mode NameAs for TargetBlock.
func (g *graph) names(call *ast.CallExpr, c callee) bool {
	return c.tag >= 0 && (c.mode < 0 || c.mode < len(call.Args) && g.isNameAsMode(call.Args[c.mode]))
}

// collectCalls records InvokeNamed/TargetBlock definitions, WaitTag/WaitFor
// waits, and dispatched-literal regions.
func (g *graph) collectCalls(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c, ok := g.lookup(call)
		if !ok {
			return true
		}
		if c.wait {
			var tags []string
			for _, i := range c.tagArgs(call) {
				if tag, ok := g.stringArg(call, i); ok {
					tags = append(tags, tag)
				}
			}
			if len(tags) > 0 {
				g.waits = append(g.waits, waitSite{pos: call.Pos(), tags: tags})
			}
			return true
		}
		target, ok := g.stringArg(call, c.target)
		if !ok {
			return true
		}
		tag, named := g.stringArg(call, c.tag)
		named = named && g.names(call, c)
		if c.mode < 0 && c.tag >= 0 && !named {
			return true // InvokeNamed's block counts only with its tag
		}
		g.litRegion(call, c.lit, target)
		if named {
			g.define(tag, target)
		}
		return true
	})
}

// --- parameter-carried tags ----------------------------------------------

// collectParamTags scans each function declaration for wait/define sites
// whose tag argument is one of the function's own string parameters,
// recording the parameter index for call-site materialization.
func (g *graph) collectParamTags(f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Type.Params == nil {
			continue
		}
		paramIdx := map[string]int{}
		i := 0
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				paramIdx[name.Name] = i
				i++
			}
		}
		if len(paramIdx) == 0 {
			continue
		}
		fname := fd.Name.Name
		argParam := func(call *ast.CallExpr, i int) (int, bool) {
			if i >= len(call.Args) {
				return 0, false
			}
			id, ok := ast.Unparen(call.Args[i]).(*ast.Ident)
			if !ok {
				return 0, false
			}
			idx, ok := paramIdx[id.Name]
			return idx, ok
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			c, ok := g.lookup(call)
			if !ok {
				return true
			}
			if c.wait {
				for _, i := range c.tagArgs(call) {
					if idx, ok := argParam(call, i); ok {
						g.paramWaits[fname] = append(g.paramWaits[fname], idx)
					}
				}
				return true
			}
			target, ok := g.stringArg(call, c.target)
			if !ok || !g.names(call, c) {
				return true
			}
			if idx, ok := argParam(call, c.tag); ok {
				g.paramDefines[fname] = append(g.paramDefines[fname], paramDefine{target: target, tagIdx: idx})
			}
			return true
		})
	}
}

// materializeParamCalls turns each constant-string call of a tag-carrying
// helper into the wait/define it performs, attributed at the call site (so
// the enclosing target region is the caller's).
func (g *graph) materializeParamCalls(f *ast.File) {
	if len(g.paramWaits) == 0 && len(g.paramDefines) == 0 {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if name == "" || !g.isLocalFunc(call) {
			return true
		}
		for _, idx := range g.paramWaits[name] {
			if tag, ok := g.stringArg(call, idx); ok {
				g.waits = append(g.waits, waitSite{pos: call.Pos(), tags: []string{tag}})
			}
		}
		for _, pd := range g.paramDefines[name] {
			if tag, ok := g.stringArg(call, pd.tagIdx); ok {
				g.define(tag, pd.target)
			}
		}
		return true
	})
}

// isLocalFunc checks (when types are available) that the call resolves to a
// function of the package under analysis; without types any callee name
// matches, consistent with the rest of the pass.
func (g *graph) isLocalFunc(call *ast.CallExpr) bool {
	if g.pass.TypesInfo == nil || g.pass.Pkg == nil {
		return true
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, _ := g.pass.TypesInfo.Uses[id].(*types.Func)
	return fn != nil && fn.Pkg() == g.pass.Pkg
}

// litRegion records the function-literal argument of a dispatch call as a
// region executing on target.
func (g *graph) litRegion(call *ast.CallExpr, argIndex int, target string) {
	if argIndex >= len(call.Args) {
		return
	}
	if lit, ok := call.Args[argIndex].(*ast.FuncLit); ok {
		g.regions = append(g.regions, region{target: target, start: lit.Pos(), end: lit.End()})
	}
}

// calleeName returns the bare selector/identifier name of the called
// function.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isRuntimeMethod checks (when types are available) that the call's
// receiver is *core.Runtime; without types any selector of that name
// matches.
func (g *graph) isRuntimeMethod(call *ast.CallExpr, name string) bool {
	if g.pass.TypesInfo == nil {
		_, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		return isSel
	}
	return g.isRuntimeMethodStrict(call, name)
}

// isRuntimeMethodStrict requires type information and a *core.Runtime
// receiver.
func (g *graph) isRuntimeMethodStrict(call *ast.CallExpr, name string) bool {
	if g.pass.TypesInfo == nil {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, _ := g.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return fn != nil && fn.Name() == name && recvIsRuntime(fn)
}

// recvIsRuntime reports whether fn's receiver is (*)core.Runtime.
func recvIsRuntime(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Runtime" && obj.Pkg() != nil && obj.Pkg().Path() == "repro/internal/core"
}

// isPyjamaFunc checks (when types are available) that a call resolves to
// the pyjama facade; without types the bare name is accepted.
func (g *graph) isPyjamaFunc(call *ast.CallExpr, name string) bool {
	if g.pass.TypesInfo == nil {
		return true
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, _ := g.pass.TypesInfo.Uses[id].(*types.Func)
	return fn != nil && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == "repro/internal/pyjama"
}

// isNameAsMode reports whether the mode argument is the NameAs constant —
// by value when types are available, by spelling otherwise.
func (g *graph) isNameAsMode(arg ast.Expr) bool {
	if g.pass.TypesInfo != nil {
		if tv, ok := g.pass.TypesInfo.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
			v, _ := constant.Int64Val(tv.Value)
			return v == 2 // core.NameAs
		}
		return false
	}
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		return e.Name == "NameAs"
	case *ast.SelectorExpr:
		return e.Sel.Name == "NameAs"
	}
	return false
}

// stringArg extracts a constant string argument: through the type checker
// when available, or a string literal otherwise.
func (g *graph) stringArg(call *ast.CallExpr, i int) (string, bool) {
	if i < 0 || i >= len(call.Args) {
		return "", false
	}
	arg := call.Args[i]
	if g.pass.TypesInfo != nil {
		if tv, ok := g.pass.TypesInfo.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			return constant.StringVal(tv.Value), true
		}
		return "", false
	}
	if lit, ok := ast.Unparen(arg).(*ast.BasicLit); ok && lit.Kind == token.STRING {
		if s, err := strconv.Unquote(lit.Value); err == nil {
			return s, true
		}
	}
	return "", false
}

// --- reporting -----------------------------------------------------------

// enclosingTarget returns the innermost region containing pos ("" when the
// wait happens outside any target block — the encountering thread is then
// an application goroutine, which may suspend freely).
func (g *graph) enclosingTarget(pos token.Pos) string {
	best := ""
	bestSize := token.Pos(-1)
	for _, r := range g.regions {
		if r.start <= pos && pos < r.end {
			if size := r.end - r.start; bestSize < 0 || size < bestSize {
				best, bestSize = r.target, size
			}
		}
	}
	return best
}

func (g *graph) report() {
	var edges []edge
	for _, w := range g.waits {
		from := g.enclosingTarget(w.pos)
		for _, tag := range w.tags {
			defs := g.defines[tag]
			if len(defs) == 0 {
				g.pass.Reportf(w.pos,
					"wait on tag %q, but no name_as(%s) directive or InvokeNamed/TargetBlock site defines it; the wait is a silent no-op",
					tag, tag)
				continue
			}
			if from == "" {
				continue
			}
			for to := range defs {
				edges = append(edges, edge{from: from, to: to, tag: tag, pos: w.pos})
			}
		}
	}
	reportCycles(g.pass, edges)
}

// reportCycles finds every elementary cycle reachable in the edge set and
// reports each once, at the position of its lexically first wait.
func reportCycles(pass *analysis.Pass, edges []edge) {
	adj := map[string][]edge{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e)
	}
	var nodes []string
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	seen := map[string]bool{} // canonical cycle key -> reported
	var path []edge
	onPath := map[string]bool{}
	var dfs func(string)
	dfs = func(n string) {
		onPath[n] = true
		for _, e := range adj[n] {
			if onPath[e.to] {
				// Unwind to the start of the cycle.
				start := 0
				for i, pe := range path {
					if pe.from == e.to {
						start = i
						break
					}
				}
				cycle := append(append([]edge(nil), path[start:]...), e)
				if e.to == n {
					cycle = []edge{e} // self-loop
				}
				key := cycleKey(cycle)
				if !seen[key] {
					seen[key] = true
					reportCycle(pass, cycle)
				}
				continue
			}
			path = append(path, e)
			dfs(e.to)
			path = path[:len(path)-1]
		}
		onPath[n] = false
	}
	for _, n := range nodes {
		dfs(n)
	}
}

// cycleKey canonicalizes a cycle (rotation-invariant) for deduplication.
func cycleKey(cycle []edge) string {
	parts := make([]string, len(cycle))
	for i, e := range cycle {
		parts[i] = e.from + "→" + e.to + ":" + e.tag
	}
	// Rotate so the smallest part comes first.
	min := 0
	for i := range parts {
		if parts[i] < parts[min] {
			min = i
		}
	}
	return strings.Join(append(parts[min:], parts[:min]...), ";")
}

func reportCycle(pass *analysis.Pass, cycle []edge) {
	first := cycle[0]
	for _, e := range cycle[1:] {
		if e.pos < first.pos {
			first = e
		}
	}
	if len(cycle) == 1 && cycle[0].from == cycle[0].to {
		e := cycle[0]
		pass.Reportf(e.pos,
			"target %q waits on tag %q whose blocks are scheduled on %q itself: WaitTag suspends a member of the very pool that must run them (deadlock when the pool saturates; use await instead)",
			e.from, e.tag, e.to)
		return
	}
	var b strings.Builder
	for i, e := range cycle {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s waits on %q (tag %q)", e.from, e.to, e.tag)
	}
	pass.Reportf(first.pos, "potential deadlock: wait cycle among virtual targets: %s", b.String())
}
