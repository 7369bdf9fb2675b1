package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// The //simlint:allow directive is the single escape hatch from every
// simlint rule:
//
//	//simlint:allow <analyzer> -- <reason>
//
// The reason is mandatory: a suppression without a recorded
// justification is itself an error. A directive covers the source line
// it sits on and the line immediately below it, so both forms work:
//
//	doRisky() //simlint:allow wallclock -- operator-facing timing output
//
//	//simlint:allow maprange -- summing counters: addition commutes
//	for _, n := range perHost { ... }
//
// One directive names one analyzer; stack directives to suppress more
// than one. As a hard policy floor, noparkinevent may never be
// suppressed inside internal/netem or internal/tor: those are exactly
// the packages whose event paths the rule exists to protect, and a
// directive there is rejected as an error rather than honored.

// directive is one parsed, well-formed //simlint:allow comment.
type directive struct {
	analyzer string
	file     string
	line     int
}

var directiveRE = regexp.MustCompile(`^//simlint:allow\s+([A-Za-z0-9_-]+)\s+--\s*(.*)$`)

// noSuppressNoParkSegments are package-path segments in which
// noparkinevent directives are rejected outright.
var noSuppressNoParkSegments = map[string]bool{"netem": true, "tor": true}

// collectDirectives parses every //simlint:allow comment in files.
// Malformed directives (missing analyzer, unknown analyzer, empty
// reason) are returned as error diagnostics under the pseudo-analyzer
// name "directive"; they suppress nothing.
func collectDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool, pkgPath string) ([]directive, []Diagnostic) {
	var dirs []directive
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: "directive",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	banNoPark := pathHasAnySegment(pkgPath, noSuppressNoParkSegments)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, "//simlint:") {
					continue
				}
				if !strings.HasPrefix(text, "//simlint:allow") {
					report(c.Pos(), "unknown simlint directive %q (only //simlint:allow <analyzer> -- <reason> exists)", firstField(text))
					continue
				}
				m := directiveRE.FindStringSubmatch(text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					report(c.Pos(), "malformed simlint directive: want //simlint:allow <analyzer> -- <non-empty reason>")
					continue
				}
				name := m[1]
				if !known[name] {
					report(c.Pos(), "simlint directive names unknown analyzer %q", name)
					continue
				}
				if name == "noparkinevent" && banNoPark {
					report(c.Pos(), "noparkinevent may not be suppressed in package %s: netem/tor event paths are the contract this rule protects", pkgPath)
					continue
				}
				pos := fset.Position(c.Pos())
				dirs = append(dirs, directive{analyzer: name, file: pos.Filename, line: pos.Line})
			}
		}
	}
	return dirs, diags
}

// suppressed reports whether a directive covers d: same analyzer, same
// file, directive on the diagnostic's line or the line above.
func suppressed(dirs []directive, d Diagnostic) bool {
	for _, dir := range dirs {
		if dir.analyzer == d.Analyzer && dir.file == d.Pos.Filename &&
			(dir.line == d.Pos.Line || dir.line == d.Pos.Line-1) {
			return true
		}
	}
	return false
}

// pathHasAnySegment reports whether any "/"-separated segment of path is
// in set.
func pathHasAnySegment(path string, set map[string]bool) bool {
	for _, seg := range strings.Split(path, "/") {
		// Test variants carry a " [pkg.test]" suffix on the final
		// segment; strip it so policy decisions match the real package.
		if i := strings.IndexByte(seg, ' '); i >= 0 {
			seg = seg[:i]
		}
		if set[seg] {
			return true
		}
	}
	return false
}

func firstField(s string) string {
	f := strings.Fields(strings.TrimPrefix(s, "//"))
	if len(f) == 0 {
		return s
	}
	return f[0]
}
