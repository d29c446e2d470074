package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Analyzers returns the repo's pass set in the order cmd/refill-lint runs
// them.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapRange, WallClock, PoolHygiene, EscapeCheck, ShardOwner}
}

// deterministicPackages are the packages whose output must be bit-identical
// across runs: the inference core (fsm, engine), the flow and event models,
// the diagnosis reads, and the report emitters. Ranging over a map
// anywhere in them risks nondeterministic output or inference order.
var deterministicPackages = PathIn(
	"repro/internal/fsm",
	"repro/internal/engine",
	"repro/internal/flow",
	"repro/internal/event",
	"repro/internal/diagnosis",
	"repro/internal/report",
	"repro/internal/analysis/testdata/src/fixture",
)

// MapRange forbids `for ... range m` over map values in deterministic-output
// paths. Iteration order of Go maps is randomized per run; a range that truly
// is order-insensitive (commutative accumulation, or feeding a sort) may be
// annotated `//refill:allow maprange — <why order cannot leak>`.
var MapRange = &Analyzer{
	Name:  "maprange",
	Doc:   "no map iteration in deterministic-output paths (flow/report emission, inference core)",
	Match: deterministicPackages,
	Run: func(p *Pass) {
		for _, f := range p.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := p.Pkg.Info.Types[rs.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					p.Reportf(rs.For, "range over map %s: iteration order is nondeterministic in a deterministic-output path", types.TypeString(tv.Type, types.RelativeTo(p.Pkg.Types)))
				}
				return true
			})
		}
	},
}

// replayDeterministicPackages must behave identically when a log collection
// is replayed: the engine core and everything under it. Wall-clock reads and
// global randomness there would make reconstructed flows differ between runs
// of the same input.
var replayDeterministicPackages = PathIn(
	"repro/internal/fsm",
	"repro/internal/engine",
	"repro/internal/flow",
	"repro/internal/event",
	"repro/internal/diagnosis",
	"repro/internal/analysis/testdata/src/fixture",
)

// WallClock forbids time.Now and the math/rand family in the replay-
// deterministic engine core. Simulation and workload packages keep their
// seeded randomness; the inference path must not observe the wall clock or
// unseeded global randomness at all.
var WallClock = &Analyzer{
	Name:  "wallclock",
	Doc:   "no time.Now or math/rand in the replay-deterministic engine core",
	Match: replayDeterministicPackages,
	Run: func(p *Pass) {
		for _, f := range p.Pkg.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if path == "math/rand" || path == "math/rand/v2" {
					p.Reportf(imp.Pos(), "import of %s: the engine core must stay replay-deterministic", path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := p.Pkg.Info.Uses[sel.Sel]
				fn, ok := obj.(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if fn.Pkg().Path() == "time" && fn.Name() == "Now" {
					p.Reportf(sel.Pos(), "time.Now in the engine core: replayed inputs would reconstruct different flows")
				}
				return true
			})
		}
	},
}

// PoolHygiene enforces the sync.Pool contract: once a value is Put back,
// the putting function must not touch it again — a retained reference races
// with the next Get of the same object. The check is block-local: any
// statement after `pool.Put(x)` in the same block that mentions x is
// reported.
var PoolHygiene = &Analyzer{
	Name: "poolhygiene",
	Doc:  "no use of a value after handing it to sync.Pool.Put",
	Run: func(p *Pass) {
		for _, f := range p.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				block, ok := n.(*ast.BlockStmt)
				if !ok {
					return true
				}
				checkBlock(p, block)
				return true
			})
		}
	},
}

// checkBlock scans one statement list for Put calls and later uses of the
// pooled value.
func checkBlock(p *Pass, block *ast.BlockStmt) {
	for i, stmt := range block.List {
		putArg := poolPutArg(p, stmt)
		if putArg == nil {
			continue
		}
		for _, later := range block.List[i+1:] {
			ast.Inspect(later, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if p.Pkg.Info.Uses[id] == putArg {
					p.Reportf(id.Pos(), "%s is used after being returned to its sync.Pool", putArg.Name())
				}
				return true
			})
		}
	}
}

// poolPutArg returns the object passed to a (*sync.Pool).Put call made
// directly by stmt (not inside nested function literals), or nil.
func poolPutArg(p *Pass, stmt ast.Stmt) types.Object {
	var found types.Object
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // a deferred/nested closure is a different scope in time
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Name() != "Put" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return true
		}
		arg, ok := call.Args[0].(*ast.Ident)
		if !ok {
			return true
		}
		if obj := p.Pkg.Info.Uses[arg]; obj != nil {
			found = obj
			return false
		}
		return true
	})
	return found
}
