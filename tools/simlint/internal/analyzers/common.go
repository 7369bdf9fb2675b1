// Package analyzers holds the seven simlint analyzers that turn
// DESIGN.md's "Determinism contract" and "Inline event execution"
// sections into machine-checked rules. See each analyzer's Doc and
// DESIGN.md "Static enforcement of the determinism contract".
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"ptperf/tools/simlint/internal/lint"
)

// All returns the full simlint analyzer suite in stable order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{Wallclock, SeededRand, NoParkInEvent, RawGo, MapRange, NoLocks, NoRecover}
}

// simSegments classifies simulation packages: code in a package whose
// import path contains one of these segments runs (at least partly) on
// the virtual clock and is bound by the full determinism contract —
// goroutines enter through Clock.Go, time comes from the netem clock.
// The segment match (rather than exact paths) lets the analysistest
// sandboxes and the seeded-violation scratch module stand in for the
// real tree: sandbox/netem is a simulation package exactly like
// ptperf/internal/netem.
var simSegments = map[string]bool{
	"netem":   true,
	"tor":     true,
	"pt":      true,
	"censor":  true,
	"faults":  true,
	"testbed": true,
	"harness": true,
	"fetch":   true,
	"web":     true,
	"simtest": true,
}

// renderSegments classifies report/render/digest packages: code whose
// output bytes (reports, Prometheus text, HTML, fuzz digests, bench
// tables) must not depend on Go's randomized map iteration order.
var renderSegments = map[string]bool{
	"harness":   true,
	"obs":       true,
	"simtest":   true,
	"plot":      true,
	"stats":     true,
	"benchdiff": true,
}

// isSimPkg reports whether the package at path is simulation code.
func isSimPkg(path string) bool { return pathHasAnySegment(path, simSegments) }

// isRenderPkg reports whether the package at path renders report bytes.
func isRenderPkg(path string) bool { return pathHasAnySegment(path, renderSegments) }

func pathHasAnySegment(path string, set map[string]bool) bool {
	for _, seg := range strings.Split(path, "/") {
		// go vet analyzes test variants under "pkg [pkg.test]" IDs;
		// strip the suffix so classification matches the real package.
		if i := strings.IndexByte(seg, ' '); i >= 0 {
			seg = seg[:i]
		}
		if set[seg] {
			return true
		}
	}
	return false
}

// lastSegment returns the final "/"-separated element of an import path
// (with any " [pkg.test]" test-variant suffix stripped).
func lastSegment(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path
}

// calleeFunc resolves the static callee of a call expression: a
// package-level function, a method on a concrete type, or an interface
// method. Calls through function-typed values resolve to nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Qualified identifier: pkg.Func.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// recvTypeName returns the name of a method's receiver named type
// ("Clock" for (*Clock).EventAt), or "" for package-level functions.
// Pointerness and type parameters are stripped.
func recvTypeName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		// Interface receivers reach here for methods spelled on an
		// unnamed interface; named interfaces arrive as *types.Named.
		return ""
	}
	return ""
}

// isMethodOf reports whether f is the named method on the named
// receiver type declared in a package whose import path ends with the
// given final segment ("netem" matches both ptperf/internal/netem and
// the analysistest sandbox/netem stub).
func isMethodOf(f *types.Func, pkgSegment, recv, name string) bool {
	if f == nil || f.Name() != name || f.Pkg() == nil {
		return false
	}
	if lastSegment(f.Pkg().Path()) != pkgSegment {
		return false
	}
	return recvTypeName(f) == recv
}
