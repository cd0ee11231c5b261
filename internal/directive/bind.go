package directive

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// A Site is one //#omp comment of a Go file and what it binds to. pjc
// translates sites and the ompvet passes check them, so both read the same
// binding rule from Bind.
type Site struct {
	Comment *ast.Comment
	// Directive is the parsed directive, nil when the comment does not parse.
	Directive *Directive
	// Stmt is the statement a block directive binds to: the first statement
	// starting on the line after the comment, set even when it is not the
	// kind the directive needs (Err then says so). It is nil for standalone
	// directives (wait, barrier, taskwait, target update), which bind
	// nothing, and for a directive that shares its line with code.
	Stmt ast.Stmt
	// Err says why the directive cannot be used as written: its parse or
	// validation error, or a misplacement (sharing its line with code, a
	// standalone directive outside a function body, a block directive not
	// followed by the statement its kind needs). Nil when the site is sound.
	Err error
}

// Bind parses every //#omp comment of f and binds each to its statement,
// returning the sites in source order.
func Bind(fset *token.FileSet, f *ast.File) []Site {
	var sites []Site
	for _, grp := range f.Comments {
		for _, c := range grp.List {
			text := strings.TrimPrefix(c.Text, "//")
			if IsDirectiveComment(text) {
				d, err := Parse(text)
				sites = append(sites, Site{Comment: c, Directive: d, Err: err})
			}
		}
	}
	if len(sites) == 0 {
		return nil
	}

	line := func(p token.Pos) int { return fset.Position(p).Line }
	stmtAt := map[int]ast.Stmt{} // line -> first statement-list entry starting on it
	codeLine := map[int]bool{}   // lines some statement ends on
	var bodies []*ast.BlockStmt  // function bodies
	first := func(stmts []ast.Stmt) {
		for _, st := range stmts {
			if _, dup := stmtAt[line(st.Pos())]; !dup {
				stmtAt[line(st.Pos())] = st
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BlockStmt:
			first(v.List)
		case *ast.CaseClause:
			first(v.Body)
		case *ast.CommClause:
			first(v.Body)
		case *ast.FuncDecl:
			if v.Body != nil {
				bodies = append(bodies, v.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, v.Body)
		}
		if st, ok := n.(ast.Stmt); ok {
			codeLine[line(st.End())] = true
		}
		return true
	})
	inFunc := func(p token.Pos) bool {
		for _, b := range bodies {
			if b.Pos() <= p && p < b.End() {
				return true
			}
		}
		return false
	}

	for i := range sites {
		s := &sites[i]
		if s.Err != nil {
			continue
		}
		k := s.Directive.Kind
		standalone := k == KindWait || k == KindBarrier || k == KindTaskwait || k == KindTargetUpdate
		loop := k == KindFor || k == KindParallelFor
		trailing := codeLine[line(s.Comment.Pos())]
		if !standalone && !trailing {
			s.Stmt = stmtAt[line(s.Comment.End())+1]
		}
		_, isFor := s.Stmt.(*ast.ForStmt)
		_, isBlock := s.Stmt.(*ast.BlockStmt)
		switch {
		case trailing:
			s.Err = fmt.Errorf("directive %q shares its line with code and will not bind to any statement; put it on its own line", k)
		case standalone:
			if !inFunc(s.Comment.Pos()) {
				s.Err = fmt.Errorf("standalone directive %q outside a function body", k)
			}
		case s.Stmt == nil:
			s.Err = fmt.Errorf("directive %q is not followed by a statement on the next line", k)
		case loop && !isFor:
			s.Err = fmt.Errorf("directive %q must be followed by a for statement", k)
		case !loop && !isBlock:
			s.Err = fmt.Errorf("directive %q must be followed by a structured block { ... }", k)
		}
	}
	return sites
}
