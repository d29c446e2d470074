package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// escapecheck enforces the allocation-discipline annotations stamped on the
// repo's proven-hot functions:
//
//	//refill:noalloc   the function body must contain no compiler-reported
//	                   heap allocation (escape or moved-to-heap site)
//	//refill:inline    the compiler must be able to inline the function
//
// Both markers live in the function's doc comment. The pass invokes the real
// Go compiler with -gcflags=-m=2 on every annotated package (CompileEscapes)
// and checks the annotations against the compiler's own escape-analysis and
// inlining verdicts, so the allocation wins the benchmarks measure are
// enforced at lint time instead of being discovered when a benchmark
// regresses. A deliberate cold-path allocation inside a noalloc function is
// suppressed site-by-site with
//
//	//refill:allow escapecheck — <why the site is cold / amortized>
//
// on (or directly above) the allocating line.
const (
	noallocMarker = "//refill:noalloc"
	inlineMarker  = "//refill:inline"
)

// EscapeCheck is the allocation-discipline analyzer. It matches every package
// but exits before invoking the compiler when no annotation is present, so
// unannotated packages pay one comment scan, not a compile.
var EscapeCheck = &Analyzer{
	Name: "escapecheck",
	Doc:  "compiler-verified //refill:noalloc and //refill:inline annotations on hot functions",
	Run:  runEscapeCheck,
}

// annotatedFunc is one declaration carrying at least one discipline marker.
type annotatedFunc struct {
	decl            *ast.FuncDecl
	name            string
	noalloc, inline bool
	file            string
	declLine        int
	bodyLo, bodyHi  int
}

func runEscapeCheck(p *Pass) {
	var funcs []annotatedFunc
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			af := annotatedFunc{decl: fn, name: fn.Name.Name}
			for _, c := range fn.Doc.List {
				switch {
				case hasMarker(c.Text, noallocMarker):
					af.noalloc = true
				case hasMarker(c.Text, inlineMarker):
					af.inline = true
				}
			}
			if !af.noalloc && !af.inline {
				continue
			}
			start := p.Pkg.Fset.Position(fn.Pos())
			end := p.Pkg.Fset.Position(fn.End())
			af.file = start.Filename
			af.declLine = start.Line
			af.bodyLo, af.bodyHi = start.Line, end.Line
			funcs = append(funcs, af)
		}
	}
	if len(funcs) == 0 {
		return
	}

	model, err := CompileEscapes(p.Pkg.Dir)
	if err != nil {
		p.ReportAtPosition(token.Position{Filename: p.Pkg.Dir, Line: 1, Column: 1},
			"escapecheck could not compile the package: %v", err)
		return
	}
	if model.Drifted() {
		// A Go release changing the -m=2 grammar must fail loudly: silently
		// parsing nothing would certify every annotation vacuously.
		p.ReportAtPosition(token.Position{Filename: p.Pkg.Dir, Line: 1, Column: 1},
			"escapecheck parsed no usable -gcflags=-m=2 diagnostics (%d recognized, %d unknown lines); the compiler output format may have changed — update internal/analysis/escape.go",
			model.Parsed, model.Unknown)
		return
	}

	for _, af := range funcs {
		if af.noalloc {
			for _, site := range model.AllocsIn(af.file, af.bodyLo, af.bodyHi) {
				p.ReportAtPosition(token.Position{Filename: site.File, Line: site.Line, Column: site.Col},
					"%s is annotated //refill:noalloc but the compiler reports: %s", af.name, site.Text)
			}
		}
		if af.inline {
			decisions := model.DecisionsAt(af.file, af.declLine)
			if len(decisions) == 0 {
				p.ReportAtPosition(token.Position{Filename: af.file, Line: af.declLine, Column: 1},
					"%s is annotated //refill:inline but the compiler recorded no inlining decision for it (build-tag mismatch or -m=2 format drift)", af.name)
				continue
			}
			for _, d := range decisions {
				if !d.CanInline {
					p.ReportAtPosition(token.Position{Filename: af.file, Line: af.declLine, Column: 1},
						"%s is annotated //refill:inline but cannot be inlined: %s", d.Name, d.Reason)
				}
			}
		}
	}
}

// hasMarker reports whether a comment line is the given //refill: directive,
// alone or followed by a rationale (`//refill:noalloc — kernel hot loop`).
func hasMarker(text, marker string) bool {
	if !strings.HasPrefix(text, marker) {
		return false
	}
	rest := text[len(marker):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}
