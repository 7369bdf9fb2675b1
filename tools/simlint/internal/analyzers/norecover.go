package analyzers

import (
	"go/ast"
	"go/types"

	"ptperf/tools/simlint/internal/lint"
)

// NoRecover forbids recover() in world packages. A world ends by
// unwinding: netem.Clock.Shutdown resumes every parked frame with a
// sentinel panic that only the coroutine's own root recovers, so the
// frame leaves through its deferred calls and its goroutine exits. A
// recover() on the way would swallow the sentinel and return into the
// code of a world that no longer exists: its next wait unwinds again,
// or it spins without one, on the driver's thread. The one recover that
// implements the mechanism takes a directive with its reason. Code that
// turns a world's panic into an error belongs outside the world, on the
// driver (sim.Submit, simtest's shrinker).
//
// Scope: non-test files; tests recover on the driver to assert panics.
var NoRecover = &lint.Analyzer{
	Name: "norecover",
	Doc: "forbid recover() in world packages; it would swallow the sentinel " +
		"Clock.Shutdown unwinds parked frames with",
	Run: runNoRecover,
}

func runNoRecover(pass *lint.Pass) error {
	if !isWorldPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "recover" {
				pass.Reportf(call.Pos(),
					"recover() in world package %s: it would swallow the sentinel Clock.Shutdown unwinds a parked frame with and return into a dead world; recover on the driver, outside the world",
					pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
