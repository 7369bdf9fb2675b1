package analyzers

import (
	"go/ast"
	"go/types"

	"ptperf/tools/simlint/internal/lint"
)

// multiWorldSegments are the simulation packages that build many worlds
// and join them from their own goroutines: like sim and obs they keep
// real locks. Every other simulation package is a world package — code
// that only ever runs on one world's run token.
var multiWorldSegments = []string{"harness", "simtest"}

// isWorldPkg reports whether the package at path is a world package.
func isWorldPkg(path string) bool {
	return isSimPkg(path) && !lint.PathHasAnySegment(path, multiWorldSegments...)
}

// lockTypes are the sync types that can only ever be uncontended inside
// a world.
var lockTypes = map[string]bool{"Mutex": true, "RWMutex": true, "Cond": true, "Locker": true}

// NoLocks forbids sync.Mutex, sync.RWMutex, sync.Cond and sync.Locker
// in world packages. A world is single-threaded by construction:
// exactly one of its goroutines holds the run token, a park is the only
// yield point, and the coroutine switch orders memory. A sync lock
// there guards nothing — one that ever had to wait would hang the
// process, its holder being a coroutine that cannot run until the
// waiter yields — and costs an atomic read-modify-write per use on the
// hottest paths. Critical sections that park use netem.Mutex; state
// that really is shared across worlds (a registry filled at start-up)
// takes a directive with its reason.
//
// Every mention of the type is reported: field, variable, embedded
// field, parameter, composite literal, alias. Scope: non-test files;
// tests drive transports over net.Pipe from plain goroutines.
var NoLocks = &lint.Analyzer{
	Name: "nolocks",
	Doc: "forbid sync.Mutex, sync.RWMutex, sync.Cond and sync.Locker in world packages; " +
		"one run token per world means they guard nothing",
	Run: runNoLocks,
}

func runNoLocks(pass *lint.Pass) error {
	if !isWorldPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			tn, ok := pass.TypesInfo.Uses[id].(*types.TypeName)
			if ok && tn.Pkg() != nil && tn.Pkg().Path() == "sync" && lockTypes[tn.Name()] {
				pass.Reportf(id.Pos(),
					"sync.%s in world package %s: one goroutine of a world runs at a time and a park is the only yield point, so it guards nothing; delete it, or use netem.Mutex if the critical section parks",
					tn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
