package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"ptperf/tools/simlint/internal/lint"
)

// Layering keeps what each row of the layering table forbids out of the
// packages or files the row names: a hand-read flight or a goroutine in
// the transport layer, a parking read where a chain of clock events
// serves, a sync.Pool on the data path, a wall-clock deadline. Imports,
// callees and types are resolved by the type checker, so a renamed
// import or a call written over two lines is seen as what it is, and a
// comment naming the thing is not.
//
// Scope: non-test files. No directive suppresses a row: the one file a
// row skips, if any, is written in the row.
var Layering = &lint.Analyzer{
	Name: "layering",
	Doc: "keep each import, call, nil continuation, type, format verb or name the layering " +
		"table forbids out of the packages and files its row names",
	Run: func(pass *lint.Pass) error { checkRows(pass, layering); return nil },
}

// forbid is the kind of thing a row keeps out. A row's what lists the
// things, separated by spaces.
type forbid int

const (
	importOf forbid = iota // an import whose path holds the segments: "unicode" holds "unicode/utf8"
	call                   // a call of "pkg.Func", "pkg.Recv.Method", or "*.Name" of any package or receiver
	nilLast                // a call of a function or method of that name with a literal nil last argument
	byValue                // the type "pkg.Type" written other than behind a *
	literal                // a string literal the regexp matches
	ident                  // an identifier of that name, declared or used
)

// rule is one row of the table. in lists package-path segments, and
// "segment/file.go" for one file of such a package; an empty in is
// every package. except is a file, written the same way, that the row
// skips. section is the DESIGN.md section the row enforces.
type rule struct {
	in, except, what, section string
	forbid                    forbid
}

var layering = []rule{
	{in: "pt", forbid: call, what: "io.ReadFull io.CopyN", section: "Transport layer"},
	{in: "netem/host.go pt", forbid: call, what: "*.Go", section: "Transport layer"},
	{in: "web stegotorus", forbid: importOf, what: "unicode", section: "Buffer ownership"},
	{in: "web stegotorus", forbid: call, what: "strings.EqualFold bytes.EqualFold", section: "Buffer ownership"},
	{in: "web fetch camoufler/camoufler.go", forbid: importOf, what: "bufio", section: "Buffer ownership"},
	{in: "fetch web/origin.go", forbid: call, what: "*.ReadFull", section: "Buffer ownership"},
	{in: "fetch", forbid: call, what: "*.Read", section: "Buffer ownership"},
	{in: "fetch", forbid: ident, what: "FullReader", section: "Buffer ownership"},
	{in: "netem tor pt", except: "netem/lease.go", forbid: byValue, what: "sync.Pool", section: "Buffer ownership"},
	{in: "netem tor pt", except: "netem/lease.go", forbid: call, what: "sync.Pool.Get sync.Pool.Put", section: "Buffer ownership"},
	{in: "web/origin.go camoufler/camoufler.go", forbid: call, what: "*.Sleep", section: "Inline event execution"},
	{forbid: nilLast, what: "DialEvent RunEvent DialWrapped ReadPrefixed ReadFullEvent SleepEvent", section: "Inline event execution"},
	{in: "harness plot obs", forbid: literal, what: `%[-+\x20#0-9*]*\.[0-9]+f`, section: "Performance notes"},
	{forbid: ident, what: "Epoch VirtualDeadline", section: "Deadlines"},
	{forbid: call, what: "*.SetDeadline *.SetReadDeadline *.SetWriteDeadline", section: "Deadlines"},
	{forbid: importOf, what: "internal/testkit", section: "Layering"},
	{in: "testbed", forbid: call, what: "censor.Lookup", section: "Censor & scenario layer"},
	{in: "obs/cache.go", forbid: importOf, what: "encoding/json", section: "Observability & incremental execution"},
}

// covers reports whether the scope in holds the named file of the
// package at path.
func covers(in, path, file string) bool {
	for _, e := range strings.Fields(in) {
		seg, name, one := strings.Cut(e, "/")
		if lint.PathHasAnySegment(path, seg) && (!one || name == filepath.Base(file)) {
			return true
		}
	}
	return in == ""
}

// checkRows reports each thing the rows forbid in the pass's non-test
// files.
func checkRows(pass *lint.Pass, rows []rule) {
	path := pass.Pkg.Path()
	for _, f := range pass.Files {
		file := pass.Fset.Position(f.Pos()).Filename
		var apply []rule // one row per thing
		for _, r := range rows {
			if covers(r.in, path, file) && (r.except == "" || !covers(r.except, path, file)) {
				for _, what := range strings.Fields(r.what) {
					r.what = what
					apply = append(apply, r)
				}
			}
		}
		if len(apply) == 0 || pass.IsTestFile(f.Pos()) {
			continue
		}
		behindStar := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if star, ok := n.(*ast.StarExpr); ok {
				if sel, ok := star.X.(*ast.SelectorExpr); ok {
					behindStar[sel.Sel] = true
				}
			}
			for _, r := range apply {
				if found := r.find(pass.TypesInfo, n, behindStar); found != "" {
					scope := r.in
					if scope == "" {
						scope = "every package"
					}
					pass.Reportf(n.Pos(), "%s in %s: the layering row %q of %s keeps it out (DESIGN.md %q)",
						found, path, r.what, scope, r.section)
				}
			}
			return true
		})
	}
}

// find describes n when it is the one thing r forbids, and returns ""
// when it is not.
func (r rule) find(info *types.Info, n ast.Node, behindStar map[*ast.Ident]bool) string {
	switch n := n.(type) {
	case *ast.ImportSpec:
		p, _ := strconv.Unquote(n.Path.Value)
		if r.forbid == importOf && strings.Contains("/"+p+"/", "/"+r.what+"/") {
			return "import of " + n.Path.Value
		}
	case *ast.CallExpr:
		if f := calleeFunc(info, n); r.forbid == call && f != nil && f.Pkg() != nil && funcIs(f, r.what) {
			return "a call of " + funcLabel(f)
		}
		fun := ast.Unparen(n.Fun)
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			fun = sel.Sel
		}
		if id, ok := fun.(*ast.Ident); r.forbid == nilLast && ok && id.Name == r.what && len(n.Args) > 0 && isNilIdent(info, n.Args[len(n.Args)-1]) {
			return r.what + " given a literal nil continuation"
		}
	case *ast.Ident:
		if tn, ok := info.Uses[n].(*types.TypeName); r.forbid == byValue && ok && !behindStar[n] && tn.Pkg() != nil &&
			lastSegment(tn.Pkg().Path())+"."+tn.Name() == r.what {
			return r.what + " by value"
		}
		if r.forbid == ident && n.Name == r.what {
			return "the name " + r.what
		}
	case *ast.BasicLit:
		if r.forbid == literal && n.Kind == token.STRING && regexp.MustCompile(r.what).MatchString(n.Value) {
			return "format " + n.Value
		}
	}
	return ""
}

// funcIs reports whether f is the function or method what spells.
func funcIs(f *types.Func, what string) bool {
	parts := strings.Split(what, ".")
	name := parts[len(parts)-1]
	if parts[0] == "*" {
		return f.Name() == name
	}
	recv := ""
	if len(parts) == 3 {
		recv = parts[1]
	}
	return isMethodOf(f, parts[0], recv, name)
}
