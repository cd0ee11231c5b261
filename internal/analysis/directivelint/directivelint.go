// Package directivelint implements the ompvet pass that validates //#omp
// directive comments in place. Until now a malformed directive surfaced
// only when cmd/pjc translated the file; this pass runs the very same
// parser (directive.Parse, hardened to reject conflicting scheduling
// clauses and duplicates) over every file and reports:
//
//   - parse and validation errors (unknown directives/clauses, conflicting
//     nowait/name_as/await, duplicate clauses, arity mistakes) as
//     positioned diagnostics;
//   - structural misuse the compiler would also reject: a block directive
//     not followed by a statement on the next line, a for-directive not
//     followed by a for statement, a block directive followed by something
//     other than a structured block, a directive sharing its line with
//     code, and a standalone directive outside any function body.
//
// Parsing and binding are directive.Bind, the rule pjc translates by, so a
// directive this pass accepts is one pjc binds. The pass is purely syntactic
// so `pjc -vet` and editors can run it on a single file without
// type-checking.
package directivelint

import (
	"repro/internal/analysis"
	"repro/internal/directive"
)

// Analyzer is the directivelint pass.
var Analyzer = &analysis.Analyzer{
	Name: "directivelint",
	Doc:  "validate //#omp directive comments: syntax, clause conflicts, statement attachment",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, s := range directive.Bind(pass.Fset, f) {
			if s.Err != nil {
				pass.Reportf(s.Comment.Pos(), "%v", s.Err)
			}
		}
	}
	return nil
}
