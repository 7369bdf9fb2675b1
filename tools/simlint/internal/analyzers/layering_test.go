package analyzers

import (
	"strings"
	"testing"

	"ptperf/tools/simlint/internal/lint"
	"ptperf/tools/simlint/internal/load"
)

// TestEveryLayeringRowHasACase runs each thing a row of the layering
// table forbids alone over the sandbox. One that reports nothing there
// has no case, and nothing shows that the row catches it.
func TestEveryLayeringRowHasACase(t *testing.T) {
	pkgs, err := load.Load("testdata/sandbox", false, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range layering {
		for _, what := range strings.Fields(r.what) {
			r.what = what
			one := &lint.Analyzer{Name: "layering", Run: func(pass *lint.Pass) error {
				checkRows(pass, []rule{r})
				return nil
			}}
			n := 0
			for _, p := range pkgs {
				diags, err := lint.RunPackage(p.Fset, p.Files, p.Pkg, p.Info, []*lint.Analyzer{one})
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range diags {
					if d.Analyzer == "layering" {
						n++
					}
				}
			}
			if n == 0 {
				t.Errorf("layering row %q of %q has no case in testdata/sandbox", r.what, r.in)
			}
		}
	}
}
