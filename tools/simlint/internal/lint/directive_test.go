package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseDirectives runs collectDirectives over one synthetic source.
func parseDirectives(t *testing.T, pkgPath, src string) ([]directive, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{"wallclock": true, "noparkinevent": true, "layering": true}
	return collectDirectives(fset, []*ast.File{f}, known, pkgPath)
}

func TestDirectiveParsing(t *testing.T) {
	cases := []struct {
		name    string
		pkg     string
		comment string
		// wantDir is true when the directive should be honored;
		// otherwise wantErr is a substring of the error diagnostic.
		wantDir bool
		wantErr string
	}{
		{name: "well-formed", pkg: "m/a",
			comment: "//simlint:allow wallclock -- operator-facing timing", wantDir: true},
		{name: "empty reason", pkg: "m/a",
			comment: "//simlint:allow wallclock --", wantErr: "malformed simlint directive"},
		{name: "missing separator", pkg: "m/a",
			comment: "//simlint:allow wallclock because reasons", wantErr: "malformed simlint directive"},
		{name: "unknown analyzer", pkg: "m/a",
			comment: "//simlint:allow nosuch -- reason", wantErr: `unknown analyzer "nosuch"`},
		{name: "unknown verb", pkg: "m/a",
			comment: "//simlint:forbid wallclock -- reason", wantErr: "unknown simlint directive"},
		{name: "nopark banned in netem", pkg: "m/internal/netem",
			comment: "//simlint:allow noparkinevent -- reason", wantErr: "may not be suppressed"},
		{name: "nopark banned in tor", pkg: "m/internal/tor",
			comment: "//simlint:allow noparkinevent -- reason", wantErr: "may not be suppressed"},
		{name: "nopark banned in netem test variant", pkg: "m/internal/netem [m/internal/netem.test]",
			comment: "//simlint:allow noparkinevent -- reason", wantErr: "may not be suppressed"},
		{name: "nopark allowed elsewhere", pkg: "m/internal/app",
			comment: "//simlint:allow noparkinevent -- reason", wantDir: true},
		{name: "layering banned everywhere", pkg: "m/internal/app",
			comment: "//simlint:allow layering -- reason", wantErr: "layering may not be suppressed"},
		{name: "layering banned in a test variant", pkg: "m/cmd/x [m/cmd/x.test]",
			comment: "//simlint:allow layering -- reason", wantErr: "layering may not be suppressed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "package p\n\n" + tc.comment + "\nfunc f() {}\n"
			dirs, diags := parseDirectives(t, tc.pkg, src)
			if tc.wantDir {
				if len(dirs) != 1 || len(diags) != 0 {
					t.Fatalf("want 1 directive, 0 diagnostics; got %d, %v", len(dirs), diags)
				}
				return
			}
			if len(dirs) != 0 {
				t.Fatalf("directive honored, want rejection: %+v", dirs)
			}
			if len(diags) != 1 || !strings.Contains(diags[0].Message, tc.wantErr) {
				t.Fatalf("want one diagnostic containing %q, got %v", tc.wantErr, diags)
			}
			if diags[0].Analyzer != "directive" {
				t.Fatalf("directive errors must come from the unsuppressible %q analyzer, got %q", "directive", diags[0].Analyzer)
			}
		})
	}
}

// TestSuppressionWindow pins the directive's coverage: its own line and
// the line immediately below, same file, same analyzer.
func TestSuppressionWindow(t *testing.T) {
	dirs := []directive{{analyzer: "wallclock", file: "x.go", line: 10}}
	diag := func(file string, line int, analyzer string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: file, Line: line}, Analyzer: analyzer}
	}
	for _, tc := range []struct {
		d    Diagnostic
		want bool
	}{
		{diag("x.go", 10, "wallclock"), true},
		{diag("x.go", 11, "wallclock"), true},
		{diag("x.go", 12, "wallclock"), false},
		{diag("x.go", 9, "wallclock"), false},
		{diag("y.go", 10, "wallclock"), false},
		{diag("x.go", 10, "rawgo"), false},
	} {
		if got := suppressed(dirs, tc.d); got != tc.want {
			t.Errorf("suppressed(%s:%d [%s]) = %v, want %v",
				tc.d.Pos.Filename, tc.d.Pos.Line, tc.d.Analyzer, got, tc.want)
		}
	}
}
