// Package transform is the source-to-source compiler of the reproduction:
// the counterpart of the Pyjama compiler described in Section IV.A. It
// parses Go source containing //#omp directive comments, attaches each
// directive to its structured block (or canonical for-loop) by
// directive.Bind — the rule the directivelint pass checks — and rewrites
// the code into calls to the pyjama runtime facade and the omp fork-join
// substrate — e.g.
//
//	//#omp target virtual(worker) await
//	{
//		computeHalf1()
//	}
//
// becomes
//
//	pyjama.TargetBlock("worker", pyjama.Await, "", func() {
//		computeHalf1()
//	})
//
// mirroring the TargetRegion/invokeTargetBlock translation the paper shows.
// The rewriting is AST-guided but textual (original formatting outside
// rewritten regions is preserved) and the result is run through go/format.
//
// Known, documented divergences from full OpenMP:
//   - private(x) is translated like firstprivate(x) (an initialized
//     goroutine-local copy instead of an undefined one);
//   - default(none) is accepted but not enforced;
//   - reduction clauses are rejected — write the reduction with
//     omp.Reduce/omp.ParallelReduce by hand;
//   - a worksharing directive nested in a target block inside a parallel
//     region binds to the enclosing team, which is almost never what you
//     want — avoid it.
package transform

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"strconv"
	"strings"

	"repro/internal/directive"
)

// Options configures the translation.
type Options struct {
	// PyjamaImport is the import path of the runtime facade package
	// (default "repro/internal/pyjama").
	PyjamaImport string
	// OmpImport is the import path of the fork-join substrate
	// (default "repro/internal/omp").
	OmpImport string
}

func (o *Options) fill() {
	if o.PyjamaImport == "" {
		o.PyjamaImport = "repro/internal/pyjama"
	}
	if o.OmpImport == "" {
		o.OmpImport = "repro/internal/omp"
	}
}

// File translates one Go source file. It returns the formatted transformed
// source; when the file contains no directives it returns src unchanged.
func File(src []byte, filename string, opts Options) ([]byte, error) {
	opts.fill()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("transform: %w", err)
	}
	rw := &rewriter{src: src, fset: fset, file: f, opts: opts}
	sites := directive.Bind(fset, f)
	if len(sites) == 0 {
		return src, nil
	}
	rw.bind(sites)
	rw.analyze()
	if len(rw.errs) > 0 {
		return nil, rw.errs[0]
	}
	out := rw.render()
	if len(rw.errs) > 0 {
		return nil, rw.errs[0]
	}
	formatted, err := format.Source([]byte(out))
	if err != nil {
		// A formatting failure means we generated invalid code: surface the
		// raw output in the error to make the bug diagnosable.
		return nil, fmt.Errorf("transform: generated invalid code: %w\n--- generated ---\n%s", err, out)
	}
	return formatted, nil
}

// pair is a directive associated with (optionally) its structured block or
// canonical loop.
type pair struct {
	d       *directive.Directive
	comment *ast.Comment
	stmt    ast.Stmt       // nil for standalone directives
	block   *ast.BlockStmt // set when stmt is a block
	forStmt *ast.ForStmt   // set when stmt is a for statement

	cStart, cEnd int // comment byte offsets
	sEnd         int // end offset of the replaced region (== cEnd when standalone)

	inPar    bool
	consumed bool    // handled by an enclosing sections pair
	sections []*pair // for KindSections: its section children
}

type rewriter struct {
	src  []byte
	fset *token.FileSet
	file *ast.File
	opts Options

	pairs []*pair
	errs  []error

	needsPyjama bool
	needsOmp    bool
}

func (rw *rewriter) errorf(pos token.Pos, format string, args ...any) {
	p := rw.fset.Position(pos)
	rw.errs = append(rw.errs, fmt.Errorf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
}

func (rw *rewriter) offset(pos token.Pos) int { return rw.fset.Position(pos).Offset }

// bind turns every directive.Bind site into a pair, recording the errors of
// the sites pjc cannot translate in source order.
func (rw *rewriter) bind(sites []directive.Site) {
	for _, s := range sites {
		c := s.Comment
		switch {
		case s.Directive != nil && (s.Directive.Kind == directive.KindTargetData || s.Directive.Kind == directive.KindTargetUpdate):
			// Rewriting device data environments requires retargeting
			// variable accesses at device memory; out of pjc's scope.
			rw.errorf(c.Pos(), "pjc does not translate %q; use the internal/device API (TargetData/CopyTo/CopyFrom) directly", s.Directive.Kind)
		case s.Err != nil:
			rw.errorf(c.Pos(), "%v", s.Err)
		default:
			p := &pair{d: s.Directive, comment: c, stmt: s.Stmt,
				cStart: rw.offset(c.Pos()), cEnd: rw.offset(c.End()), sEnd: rw.offset(c.End())}
			switch st := s.Stmt.(type) {
			case *ast.BlockStmt:
				p.block, p.sEnd = st, rw.offset(st.End())
			case *ast.ForStmt:
				p.forStmt, p.sEnd = st, rw.offset(st.End())
			}
			rw.pairs = append(rw.pairs, p)
		}
	}
}

// analyze computes parallel-region nesting and sections structure.
func (rw *rewriter) analyze() {
	// inPar: the pair lies inside the block of a parallel pair.
	for _, p := range rw.pairs {
		for _, q := range rw.pairs {
			if q.d.Kind == directive.KindParallel && q.block != nil &&
				q.cStart < p.cStart && p.sEnd <= q.sEnd {
				p.inPar = true
				break
			}
		}
	}
	// Sections (and parallel sections): claim their section children.
	for _, p := range rw.pairs {
		if (p.d.Kind != directive.KindSections && p.d.Kind != directive.KindParallelSections) || p.block == nil {
			continue
		}
		for _, st := range p.block.List {
			child := rw.pairForStmt(st)
			if child == nil || child.d.Kind != directive.KindSection {
				rw.errorf(st.Pos(), "every statement in a sections region must be a //#omp section block")
				continue
			}
			child.consumed = true
			p.sections = append(p.sections, child)
		}
	}
	// Orphaned section directives (outside any sections region).
	for _, p := range rw.pairs {
		if p.d.Kind == directive.KindSection && !p.consumed {
			rw.errorf(p.comment.Pos(), "section directive outside a sections region")
		}
	}
	// Reduction clauses are not translatable without type information.
	for _, p := range rw.pairs {
		if p.d.Has(directive.ClauseReduction) {
			rw.errorf(p.comment.Pos(), "reduction clauses are not supported by pjc; use omp.Reduce in hand-written code")
		}
	}
}

func (rw *rewriter) pairForStmt(st ast.Stmt) *pair {
	for _, p := range rw.pairs {
		if p.stmt == st {
			return p
		}
	}
	return nil
}

// render produces the rewritten file text.
func (rw *rewriter) render() string {
	body := rw.splice(0, len(rw.src), nil)
	return rw.injectImports(body)
}

// splice copies src[start:end], replacing every top-most, unconsumed pair in
// the range with its rendering. except, when non-nil, is skipped (used by a
// pair rendering its own range).
func (rw *rewriter) splice(start, end int, except *pair) string {
	var b strings.Builder
	cur := start
	for _, p := range rw.pairs {
		if p == except || p.consumed {
			continue
		}
		if p.cStart < cur || p.sEnd > end {
			continue // outside the window or already covered by a previous pair
		}
		b.WriteString(string(rw.src[cur:p.cStart]))
		b.WriteString(rw.renderPair(p))
		cur = p.sEnd
	}
	b.WriteString(string(rw.src[cur:end]))
	return b.String()
}

// inner returns the rewritten text of a block's interior (between braces).
func (rw *rewriter) inner(b *ast.BlockStmt) string {
	return rw.splice(rw.offset(b.Lbrace)+1, rw.offset(b.Rbrace), nil)
}

// exprText returns the original source text of an expression.
func (rw *rewriter) exprText(e ast.Expr) string {
	return string(rw.src[rw.offset(e.Pos()):rw.offset(e.End())])
}

func (rw *rewriter) renderPair(p *pair) string {
	switch p.d.Kind {
	case directive.KindTarget:
		return rw.renderTarget(p)
	case directive.KindWait:
		return rw.renderWait(p)
	case directive.KindParallel:
		return rw.renderParallel(p)
	case directive.KindParallelFor:
		return rw.renderParallelFor(p)
	case directive.KindFor:
		return rw.renderFor(p)
	case directive.KindBarrier:
		if p.inPar {
			return "__omp_tc.Barrier()"
		}
		return "" // orphaned barrier: sequential no-op
	case directive.KindTaskwait:
		if p.inPar {
			return "__omp_tc.Taskwait()"
		}
		return ""
	case directive.KindSingle:
		if p.inPar {
			return fmt.Sprintf("__omp_tc.Single(func() {%s})", rw.inner(p.block))
		}
		return "{" + rw.inner(p.block) + "}"
	case directive.KindMaster:
		if p.inPar {
			return fmt.Sprintf("__omp_tc.Master(func() {%s})", rw.inner(p.block))
		}
		return "{" + rw.inner(p.block) + "}"
	case directive.KindCritical:
		rw.needsOmp = true
		name := p.d.Name
		if name == "" {
			name = "unnamed"
		}
		return fmt.Sprintf("omp.Critical(%q, func() {%s})", name, rw.inner(p.block))
	case directive.KindTask:
		if p.inPar {
			return fmt.Sprintf("__omp_tc.Task(func() {%s%s})", rw.shadows(p.d), rw.inner(p.block))
		}
		// Orphaned task executes sequentially (Section I: "an orphaned task
		// directive will execute sequentially").
		return "{" + rw.inner(p.block) + "}"
	case directive.KindSections:
		return rw.renderSections(p)
	case directive.KindParallelSections:
		rw.needsOmp = true
		var parts []string
		for _, sec := range p.sections {
			parts = append(parts, fmt.Sprintf("func() {%s}", rw.inner(sec.block)))
		}
		return fmt.Sprintf("omp.ParallelSections(%s,\n%s,\n)", rw.teamSize(p), strings.Join(parts, ",\n"))
	default:
		rw.errorf(p.comment.Pos(), "unhandled directive %q", p.d.Kind)
		return ""
	}
}

// shadows generates goroutine-local copies for private/firstprivate vars.
func (rw *rewriter) shadows(d *directive.Directive) string {
	var b strings.Builder
	for _, c := range d.Clauses {
		if c.Kind != directive.ClausePrivate && c.Kind != directive.ClauseFirstprivate {
			continue
		}
		for _, v := range c.Args {
			fmt.Fprintf(&b, "\n%s := %s\n_ = %s\n", v, v, v)
		}
	}
	return b.String()
}

func (rw *rewriter) renderTarget(p *pair) string {
	rw.needsPyjama = true
	name := p.d.TargetName()
	if name == "" {
		if p.d.Has(directive.ClauseMap) {
			// Rewriting a mapped device block would require retargeting
			// every variable access at device memory — deep compiler work
			// out of scope for pjc. Unified-shared-memory style (no map
			// clauses, device queue shares host memory) translates fine.
			rw.errorf(p.comment.Pos(),
				"pjc cannot rewrite device blocks with map clauses; drop the map clauses (unified-shared-memory mode) or call the internal/device API directly")
			return ""
		}
		if c := p.d.Clause(directive.ClauseDevice); c != nil {
			// No physical accelerators in this environment: device targets
			// map onto virtual targets named "device<N>" that the host
			// program must register (documented substitution).
			name = "device" + c.Arg(0)
		}
	}
	if name == "" {
		rw.errorf(p.comment.Pos(), "target needs virtual(name) or device(n): the runtime has no default target")
		return ""
	}
	mode := "Wait"
	tag := ""
	switch m, tg := p.d.SchedulingMode(); m {
	case directive.ClauseNowait:
		mode = "Nowait"
	case directive.ClauseAwait:
		mode = "Await"
	case directive.ClauseNameAs:
		mode, tag = "NameAs", tg
	}
	body := rw.shadows(p.d) + rw.inner(p.block)
	if c := p.d.Clause(directive.ClauseIf); c != nil {
		return fmt.Sprintf("pyjama.TargetBlockIf(%s, %q, pyjama.%s, %q, func() {%s})",
			c.Arg(0), name, mode, tag, body)
	}
	return fmt.Sprintf("pyjama.TargetBlock(%q, pyjama.%s, %q, func() {%s})", name, mode, tag, body)
}

func (rw *rewriter) renderWait(p *pair) string {
	rw.needsPyjama = true
	c := p.d.Clause(directive.ClauseWait)
	quoted := make([]string, len(c.Args))
	for i, a := range c.Args {
		quoted[i] = strconv.Quote(a)
	}
	return fmt.Sprintf("pyjama.WaitFor(%s)", strings.Join(quoted, ", "))
}

// teamSize renders the num_threads/if clause combination of a parallel
// directive.
func (rw *rewriter) teamSize(p *pair) string {
	nt := "0"
	if c := p.d.Clause(directive.ClauseNumThreads); c != nil {
		nt = c.Arg(0)
	}
	if c := p.d.Clause(directive.ClauseIf); c != nil {
		rw.needsPyjama = true
		return fmt.Sprintf("pyjama.TeamSize(%s, %s)", c.Arg(0), nt)
	}
	return nt
}

func (rw *rewriter) renderParallel(p *pair) string {
	rw.needsOmp = true
	return fmt.Sprintf("omp.Parallel(%s, func(__omp_tc *omp.Team) {%s%s})",
		rw.teamSize(p), rw.shadows(p.d), rw.inner(p.block))
}

// schedule renders a schedule clause into (omp.Kind, chunk) arguments.
func (rw *rewriter) schedule(p *pair) (string, string) {
	kind, chunk := "omp.Static", "0"
	if c := p.d.Clause(directive.ClauseSchedule); c != nil {
		switch c.Arg(0) {
		case "static":
			kind = "omp.Static"
		case "dynamic":
			kind = "omp.Dynamic"
		case "guided":
			kind = "omp.Guided"
		}
		if len(c.Args) == 2 {
			chunk = c.Arg(1)
		}
	}
	return kind, chunk
}

// canonicalLoop extracts (ivar, lo, hi) from a loop of the canonical form
// `for i := lo; i < hi; i++` (or <=, in which case hi becomes `(hi)+1`).
func (rw *rewriter) canonicalLoop(fs *ast.ForStmt) (ivar, lo, hi string, ok bool) {
	assign, okA := fs.Init.(*ast.AssignStmt)
	if !okA || assign.Tok != token.DEFINE || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return
	}
	id, okI := assign.Lhs[0].(*ast.Ident)
	if !okI {
		return
	}
	cond, okC := fs.Cond.(*ast.BinaryExpr)
	if !okC {
		return
	}
	condX, okX := cond.X.(*ast.Ident)
	if !okX || condX.Name != id.Name {
		return
	}
	switch cond.Op {
	case token.LSS:
		hi = rw.exprText(cond.Y)
	case token.LEQ:
		hi = "(" + rw.exprText(cond.Y) + ")+1"
	default:
		return
	}
	inc, okP := fs.Post.(*ast.IncDecStmt)
	if !okP || inc.Tok != token.INC {
		return
	}
	incX, okIX := inc.X.(*ast.Ident)
	if !okIX || incX.Name != id.Name {
		return
	}
	return id.Name, rw.exprText(assign.Rhs[0]), hi, true
}

func (rw *rewriter) renderParallelFor(p *pair) string {
	ivar, lo, hi, ok := rw.canonicalLoop(p.forStmt)
	if !ok {
		rw.errorf(p.forStmt.Pos(), "parallel for requires the canonical form `for i := lo; i < hi; i++`")
		return ""
	}
	rw.needsOmp = true
	kind, chunk := rw.schedule(p)
	return fmt.Sprintf("omp.ParallelForSchedule(%s, %s, %s, %s, %s, func(%s int) {%s%s})",
		rw.teamSize(p), lo, hi, kind, chunk, ivar, rw.shadows(p.d), rw.inner(p.forStmt.Body))
}

func (rw *rewriter) renderFor(p *pair) string {
	if !p.inPar {
		// Orphaned worksharing loop binds to a team of one: the loop runs
		// unchanged, only the directive is removed.
		return rw.splice(rw.offset(p.forStmt.Pos()), rw.offset(p.forStmt.End()), p)
	}
	ivar, lo, hi, ok := rw.canonicalLoop(p.forStmt)
	if !ok {
		rw.errorf(p.forStmt.Pos(), "omp for requires the canonical form `for i := lo; i < hi; i++`")
		return ""
	}
	rw.needsOmp = true
	kind, chunk := rw.schedule(p)
	method := "For"
	if p.d.Has(directive.ClauseNowait) {
		method = "ForNowait"
	}
	return fmt.Sprintf("__omp_tc.%s(%s, %s, %s, %s, func(%s int) {%s%s})",
		method, lo, hi, kind, chunk, ivar, rw.shadows(p.d), rw.inner(p.forStmt.Body))
}

func (rw *rewriter) renderSections(p *pair) string {
	var parts []string
	for _, sec := range p.sections {
		parts = append(parts, fmt.Sprintf("func() {%s}", rw.inner(sec.block)))
	}
	if p.inPar {
		return fmt.Sprintf("__omp_tc.Sections(\n%s,\n)", strings.Join(parts, ",\n"))
	}
	// Orphaned sections run sequentially in order.
	var b strings.Builder
	b.WriteString("{")
	for _, sec := range p.sections {
		b.WriteString("\n{")
		b.WriteString(rw.inner(sec.block))
		b.WriteString("}")
	}
	b.WriteString("\n}")
	return b.String()
}

// injectImports adds the pyjama/omp imports the generated code references,
// reusing existing imports (and their aliases) when present.
func (rw *rewriter) injectImports(body string) string {
	type need struct {
		path string
		name string // expected package identifier in generated code
	}
	var needs []need
	if rw.needsPyjama {
		needs = append(needs, need{rw.opts.PyjamaImport, "pyjama"})
	}
	if rw.needsOmp {
		needs = append(needs, need{rw.opts.OmpImport, "omp"})
	}
	if len(needs) == 0 {
		return body
	}
	var missing []string
	for _, n := range needs {
		found := false
		for _, imp := range rw.file.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == n.path {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, strconv.Quote(n.path))
		}
	}
	if len(missing) == 0 {
		return body
	}
	// Insert a new import statement right after the package clause. The
	// package clause precedes every directive, so its offset is unshifted
	// by the splicing above; format.Source then merges declarations.
	pkgEnd := rw.offset(rw.file.Name.End())
	ins := "\n\nimport (\n\t" + strings.Join(missing, "\n\t") + "\n)\n"
	return body[:pkgEnd] + ins + body[pkgEnd:]
}
