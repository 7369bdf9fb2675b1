package analyzers

import (
	"go/ast"

	"ptperf/tools/simlint/internal/lint"
)

// SeededRand forbids the top-level math/rand (and math/rand/v2)
// functions module-wide: they draw from a process-global, unseeded (or
// racily shared) source, so two same-seed campaigns — or the two halves
// of a -jobs equivalence pair — would diverge. In the non-test files of
// simulation packages it also forbids building a generator by hand
// (rand.New, rand.NewSource, v2's NewPCG/NewChaCha8): sim.NewRand(seed)
// is the one random stream type there, and math/rand's own source costs
// 4.9 KB and a seeding loop per generator. rand.NewZipf takes an
// explicit *Rand and is legal everywhere.
var SeededRand = &lint.Analyzer{
	Name: "seededrand",
	Doc: "forbid top-level math/rand draws (rand.Intn, rand.Int63, ...) everywhere and " +
		"rand.New/rand.NewSource in simulation packages; randomness flows from sim.NewRand(seed)",
	Run: runSeededRand,
}

// seededRandConstructors are the package-level functions of math/rand
// and math/rand/v2 that build a generator or its source.
var seededRandConstructors = map[string]bool{"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true}

func runSeededRand(pass *lint.Pass) error {
	simPkg := isSimPkg(pass.Pkg.Path())
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
				return true
			}
			switch {
			case recvTypeName(fn) != "" || fn.Name() == "NewZipf":
				// Methods on *rand.Rand / *rand.Zipf are the seeded surface.
			case !seededRandConstructors[fn.Name()]:
				pass.Reportf(call.Pos(),
					"top-level rand.%s draws from the unseeded global source; use a *rand.Rand from a seeded source (sim.NewRand(seed))",
					fn.Name())
			case simPkg && !pass.IsTestFile(call.Pos()):
				pass.Reportf(call.Pos(),
					"rand.%s in simulation package %s builds a second random stream type; use sim.NewRand(seed)",
					fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
