package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"slices"
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
// suppressed inside internal/netem or internal/tor, the packages whose
// event paths the rule exists to protect, and layering nowhere: a row
// writes its one exception, if any, into the table. Such a directive is
// rejected as an error rather than honored (unsuppressible).

// directive is one parsed, well-formed //simlint:allow comment.
type directive struct {
	analyzer string
	file     string
	line     int
}

var directiveRE = regexp.MustCompile(`^//simlint:allow\s+([A-Za-z0-9_-]+)\s+--\s*(.*)$`)

// unsuppressible names the analyzers whose directives are rejected, the
// package-path segments where (nil: everywhere) and why.
var unsuppressible = map[string]struct {
	in  []string
	why string
}{
	"noparkinevent": {[]string{"netem", "tor"}, "netem/tor event paths are the contract this rule protects"},
	"layering":      {nil, "a layering row writes its one exception, if any, into the table"},
}

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
				if ban, ok := unsuppressible[name]; ok && (ban.in == nil || PathHasAnySegment(pkgPath, ban.in...)) {
					report(c.Pos(), "%s may not be suppressed in package %s: %s", name, pkgPath, ban.why)
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

// PathHasAnySegment reports whether any "/"-separated segment of path
// is one of segs. go vet names a test variant "pkg [pkg.test]"; the
// suffix is stripped so that a variant matches as its package does.
func PathHasAnySegment(path string, segs ...string) bool {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	for _, seg := range strings.Split(path, "/") {
		if slices.Contains(segs, seg) {
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
