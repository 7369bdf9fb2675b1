package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"ptperf/tools/simlint/internal/lint"
)

// RawGo forbids raw `go` statements in simulation packages: every
// goroutine participating in a simulation must enter through Clock.Go
// so that the goroutine registry, the leak invariants
// (Clock.Registered sampling) and the deterministic start order hold.
// A goroutine the scheduler cannot see either stalls the virtual clock
// or lets it advance past work still pending.
//
// iter.Pull, which Clock.Go is built on, is the second way to mint an
// execution context the scheduler cannot see; outside netem it is
// reported too.
//
// Scope: non-test files of simulation packages only. Test files are
// exempt — tests drive the simulator from outside (raw pipes without a
// clock, concurrent assertion helpers), and the leak invariants already
// police what runs inside a world. Non-simulation packages (the sim
// shard executor, obs monitors, cmd/tools) spawn OS goroutines
// legitimately.
var RawGo = &lint.Analyzer{
	Name: "rawgo",
	Doc: "forbid raw go statements and iter.Pull coroutines in simulation packages; " +
		"goroutines must enter through Clock.Go",
	Run: runRawGo,
}

func runRawGo(pass *lint.Pass) error {
	if !isSimPkg(pass.Pkg.Path()) {
		return nil
	}
	inNetem := lastSegment(pass.Pkg.Path()) == "netem"
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"raw go statement in simulation package %s: spawn via Clock.Go so the goroutine is registered with the scheduler",
					pass.Pkg.Path())
			case *ast.SelectorExpr:
				fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func)
				if ok && !inNetem && fn.Pkg() != nil && fn.Pkg().Path() == "iter" && strings.HasPrefix(fn.Name(), "Pull") {
					pass.Reportf(n.Pos(),
						"iter.%s coroutine in simulation package %s: spawn via Clock.Go so the scheduler switches to it",
						fn.Name(), pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}
