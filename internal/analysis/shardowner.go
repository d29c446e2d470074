package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// shardowner is a types-driven ownership pass for the sharded engine. Types
// whose values are worker-owned — output arenas, classifier scratch, run
// state — carry a `//refill:owned` marker on their declaration. The sharding
// contract is that an owned value is created by the goroutine that uses it
// and never observed by another goroutine while the owner still touches it;
// the pass flags the syntactic ways a value crosses that boundary:
//
//   - an owned value declared outside a function literal but referenced
//     inside one launched by (or nested under) a `go` statement — the shared
//     capture that PR 3's shared-arena Info-map race demonstrated;
//   - an owned value sent on a channel;
//   - an owned value stored in (or as) a package-level variable, where any
//     goroutine can reach it.
//
// Deliberate transfers — the merge-at-join handoff where a worker publishes
// its result slot and provably stops touching it — are annotated
//
//	//refill:allow shardowner — <why the handoff is safe>
//
// on the crossing line. Ownedness is structural through containers: a
// pointer, slice, array, channel or map-value of an owned type is owned, and
// an anonymous struct is owned when any field is; a *named* type is owned
// only via its own marker, so wrapping results (e.g. a report holding a
// retired aggregate) can opt out by staying unmarked.
const ownedMarker = "//refill:owned"

// ShardOwner is the ownership analyzer. It matches every package and exits
// early when no owned type is reachable from the load.
var ShardOwner = &Analyzer{
	Name: "shardowner",
	Doc:  "worker-owned values (//refill:owned types) must not cross goroutine boundaries",
	Run:  runShardOwner,
}

func runShardOwner(p *Pass) {
	owned := collectOwnedTypes(p.All)
	if len(owned) == 0 {
		return
	}
	for _, f := range p.Pkg.Files {
		// Package-level declarations of owned values: reachable from every
		// goroutine, so never worker-owned.
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj := p.Pkg.Info.Defs[name]
					v, ok := obj.(*types.Var)
					if !ok || v.Parent() != p.Pkg.Types.Scope() {
						continue
					}
					if isOwnedType(v.Type(), owned) {
						p.Reportf(name.Pos(), "package-level variable %s holds worker-owned type %s, reachable from every goroutine", name.Name, typeName(v.Type()))
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkGoStmt(p, n, owned)
			case *ast.SendStmt:
				if t := exprType(p, n.Value); t != nil && isOwnedType(t, owned) {
					p.Reportf(n.Arrow, "worker-owned %s sent on a channel crosses a goroutine boundary", typeName(t))
				}
			case *ast.AssignStmt:
				checkGlobalStore(p, n, owned)
			}
			return true
		})
	}
}

// checkGoStmt flags owned values crossing into the spawned goroutine two
// ways: as direct operands of the `go` call (receiver or argument), and as
// captures — identifiers inside any function literal under the statement that
// resolve to owned variables declared outside that literal.
func checkGoStmt(p *Pass, g *ast.GoStmt, owned map[string]bool) {
	// Direct operands: `go worker.run()` hands the receiver over, `go f(a)`
	// hands every argument over. Function literals are handled as captures.
	if sel, ok := g.Call.Fun.(*ast.SelectorExpr); ok {
		if t := exprType(p, sel.X); t != nil && isOwnedType(t, owned) {
			p.Reportf(sel.X.Pos(), "worker-owned %s is the receiver of a go statement", typeName(t))
		}
	}
	for _, arg := range g.Call.Args {
		if _, isLit := arg.(*ast.FuncLit); isLit {
			continue
		}
		if t := exprType(p, arg); t != nil && isOwnedType(t, owned) {
			p.Reportf(arg.Pos(), "worker-owned %s passed into a go statement", typeName(t))
		}
	}
	ast.Inspect(g, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		checkCaptures(p, lit, owned)
		return true
	})
}

// checkCaptures reports identifiers inside lit that resolve to owned
// variables declared outside it — once per captured variable, at its first
// use inside the literal.
func checkCaptures(p *Pass, lit *ast.FuncLit, owned map[string]bool) {
	reported := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || reported[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal: goroutine-owned, fine
		}
		if isOwnedType(v.Type(), owned) {
			reported[v] = true
			p.Reportf(id.Pos(), "worker-owned %s %q captured by a goroutine closure", typeName(v.Type()), id.Name)
		}
		return true
	})
}

// checkGlobalStore reports assignments that store an owned value into a
// package-level variable (directly, or through a selector/index path rooted
// at one).
func checkGlobalStore(p *Pass, a *ast.AssignStmt, owned map[string]bool) {
	for i, lhs := range a.Lhs {
		root := rootIdent(lhs)
		if root == nil {
			continue
		}
		v, ok := p.Pkg.Info.Uses[root].(*types.Var)
		if !ok || v.Parent() != p.Pkg.Types.Scope() {
			continue
		}
		if i >= len(a.Rhs) {
			continue // multi-value assignment from a call; covered by type of lhs below
		}
		t := exprType(p, a.Rhs[i])
		if t == nil {
			t = exprType(p, lhs)
		}
		if t != nil && isOwnedType(t, owned) {
			p.Reportf(lhs.Pos(), "worker-owned %s stored into package-level %q, reachable from every goroutine", typeName(t), root.Name)
		}
	}
}

// rootIdent unwraps selector/index/star paths to the identifier they start
// from; nil when the path is rooted elsewhere (a call, a literal).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func exprType(p *Pass, e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// collectOwnedTypes scans every loaded package — dependencies included, since
// markers live where the type is declared — for `//refill:owned` directives
// on type declarations, returning the set keyed by "importpath.TypeName".
func collectOwnedTypes(pkgs []*Package) map[string]bool {
	owned := make(map[string]bool)
	for _, pkg := range pkgs {
		// Standard-library packages never carry repo markers; skipping them
		// avoids walking thousands of declarations per load.
		if isStdlibPath(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				groupMarked := commentGroupHasMarker(gd.Doc)
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if groupMarked || commentGroupHasMarker(ts.Doc) {
						owned[pkg.Path+"."+ts.Name.Name] = true
					}
				}
			}
		}
	}
	return owned
}

func commentGroupHasMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if hasMarker(c.Text, ownedMarker) {
			return true
		}
	}
	return false
}

// isStdlibPath approximates "standard library": no dot in the first path
// element. Good enough to skip GOROOT packages during marker collection.
func isStdlibPath(path string) bool {
	first := path
	if i := strings.IndexByte(path, '/'); i >= 0 {
		first = path[:i]
	}
	return !strings.Contains(first, ".") && first != "repro"
}

// isOwnedType reports whether t is (or structurally contains, through
// unnamed containers) a marked owned type. Named types are owned only via
// their own marker — the structural walk does not descend into a named
// type's underlying struct, so wrappers opt in explicitly.
func isOwnedType(t types.Type, owned map[string]bool) bool {
	return ownedWalk(t, owned, 0)
}

func ownedWalk(t types.Type, owned map[string]bool, depth int) bool {
	if depth > 8 {
		return false
	}
	switch u := t.(type) {
	case *types.Pointer:
		return ownedWalk(u.Elem(), owned, depth+1)
	case *types.Slice:
		return ownedWalk(u.Elem(), owned, depth+1)
	case *types.Array:
		return ownedWalk(u.Elem(), owned, depth+1)
	case *types.Chan:
		return ownedWalk(u.Elem(), owned, depth+1)
	case *types.Map:
		return ownedWalk(u.Elem(), owned, depth+1)
	case *types.Named:
		obj := u.Obj()
		if obj != nil && obj.Pkg() != nil && owned[obj.Pkg().Path()+"."+obj.Name()] {
			return true
		}
		return false
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if ownedWalk(u.Field(i).Type(), owned, depth+1) {
				return true
			}
		}
		return false
	}
	return false
}

// typeName renders a type for diagnostics without the repo-internal import
// path noise.
func typeName(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
