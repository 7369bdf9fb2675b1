package analyzers

import (
	"go/ast"

	"ptperf/tools/simlint/internal/lint"
)

// Wallclock forbids reading or waiting on the wall clock anywhere in
// the module. Virtual time is the only time simulation code may
// observe (netem Clock.Now/Sleep/EventAt, and a read timeout is a
// virtual duration, Stream.SetReadTimeout); one stray time.Now()
// silently destroys byte-identical determinism. The rule is module-wide rather than scoped to the
// simulation packages: non-simulation code (CLI timing output, bench
// tooling) may legitimately read the wall clock, but must say so with
// //simlint:allow wallclock -- <reason> so every wall-clock read in the
// tree is a recorded decision.
var Wallclock = &lint.Analyzer{
	Name: "wallclock",
	Doc: "forbid wall-clock reads/waits (time.Now, Sleep, After, Since, ...); " +
		"virtual time comes from the netem clock",
	Run: runWallclock,
}

// wallclockBanned are the package-level time functions that read or
// wait on the wall clock. Constructors of inert values (time.Date,
// time.Unix, time.Duration arithmetic, time.Parse) are fine.
var wallclockBanned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
	"Since":     true,
	"Until":     true,
}

func runWallclock(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if recvTypeName(fn) != "" || !wallclockBanned[fn.Name()] {
				return true
			}
			hint := "use the netem clock (Clock.Now/Sleep/EventAt, Stream.SetReadTimeout)"
			if !isSimPkg(pass.Pkg.Path()) {
				hint = "outside simulation code, annotate //simlint:allow wallclock -- <reason>"
			}
			pass.Reportf(call.Pos(), "wall-clock time.%s breaks the determinism contract; %s", fn.Name(), hint)
			return true
		})
	}
	return nil
}
