package harness

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// cellDigests names every cell of every experiment with its digest,
// building no world.
func cellDigests(c Config) map[string]string {
	c = c.withDefaults()
	out := make(map[string]string)
	put(out, c, c.curlCell(), c.seleniumCell())
	put(out, c, c.filesCell())
	put(out, c, c.fig3Cell(), c.fig4Cell())
	put(out, c, c.fig7Cells()...)
	put(out, c, c.mediumCells()...)
	put(out, c, c.fig9Cell())
	put(out, c, c.fig10Cell())
	put(out, c, c.fig12Cell())
	put(out, c, c.sweepCells()...)
	put(out, c, c.contentionCells()...)
	put(out, c, c.churnCells()...)
	return out
}

func put[In, Out any](out map[string]string, c Config, cells ...cell[In, Out]) {
	for _, x := range cells {
		out[x.key] = x.digest()
	}
}

// cellKind is a cell key's kind: the part before the first colon
// ("fig7:lon" → "fig7", "access:curl" → "access").
func cellKind(key string) string {
	kind, _, _ := strings.Cut(key, ":")
	return kind
}

var allKinds = []string{"access", "files", "fig3", "fig4", "fig7", "medium", "fig9", "fig10", "fig12", "scenario", "contention", "churn"}

// without returns allKinds minus the given ones.
func without(drop ...string) []string {
	dropped := make(map[string]bool)
	for _, k := range drop {
		dropped[k] = true
	}
	var out []string
	for _, k := range allKinds {
		if !dropped[k] {
			out = append(out, k)
		}
	}
	return out
}

// TestDigestReadsExactlyDeclaredInputs is the cache-soundness table at
// digest level: for every Config field, mutating it changes the digest
// of exactly the cell kinds whose measurement (or world) reads it. A
// knob missing from a cell's In shows up here as a digest that should
// have moved and did not; TestCacheSoundness is the run-level oracle.
func TestDigestReadsExactlyDeclaredInputs(t *testing.T) {
	base := obsConfig(11)
	cases := []struct {
		field   string
		mutate  func(*Config)
		changes []string // cell kinds whose every digest must change
	}{
		{"Seed", func(c *Config) { c.Seed++ }, allKinds},
		{"ByteScale", func(c *Config) { c.ByteScale *= 2 }, allKinds},
		{"Sites", func(c *Config) { c.Sites++ }, allKinds},
		{"Repeats", func(c *Config) { c.Repeats++ }, []string{"access", "fig3", "fig4", "contention"}},
		{"FileAttempts", func(c *Config) { c.FileAttempts = 7 }, []string{"files"}},
		{"FileSizesMB", func(c *Config) { c.FileSizesMB = []int{5, 10} }, []string{"files"}},
		{"Transports", func(c *Config) { c.Transports = append([]string{"meek"}, c.Transports...) }, []string{"access", "files", "scenario"}},
		// Scenario cells pick their own scenario; fig10/fig12 drop one
		// that carries load phases (manualLoadOptions) and keep others.
		{"Scenario", func(c *Config) { c.Scenario = "lossy-path" }, without("scenario")},
		{"Scenario", func(c *Config) { c.Scenario = "snowflake-surge" }, without("scenario", "fig10", "fig12")},
		{"Jobs", func(c *Config) { c.Jobs = 7 }, nil},
		// Only cells that fan out per method read Sequential; the bulk
		// campaign runs one method at a time either way.
		{"Sequential", func(c *Config) { c.Sequential = true }, []string{"access", "fig7", "medium", "fig9", "scenario", "churn"}},
		{"Plot", func(c *Config) { c.Plot = true }, nil},
		// Observing a world moves none of its bytes: a timeline is asked of
		// an entry at lookup (obs.Cache.LoadInto), not digested.
		{"MetricsInterval", func(c *Config) { c.MetricsInterval += time.Second }, nil},
		{"Progress", func(c *Config) { c.Progress = &bytes.Buffer{} }, nil},
	}

	covered := make(map[string]bool)
	for _, tc := range cases {
		covered[tc.field] = true
	}
	for i, typ := 0, reflect.TypeOf(Config{}); i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !covered[name] {
			t.Errorf("Config.%s has no row in the digest table", name)
		}
	}

	before := cellDigests(base)
	seen := make(map[string]bool)
	for key := range before {
		seen[cellKind(key)] = true
	}
	for _, k := range allKinds {
		if !seen[k] {
			t.Fatalf("no cell of kind %q enumerated", k)
		}
	}
	if len(seen) != len(allKinds) {
		t.Fatalf("enumerated kinds %v, table knows %v", seen, allKinds)
	}

	for _, tc := range cases {
		mutated := base
		tc.mutate(&mutated)
		after := cellDigests(mutated)
		if len(after) != len(before) {
			t.Fatalf("%s: mutation changed the cell set (%d → %d cells)", tc.field, len(before), len(after))
		}
		want := make(map[string]bool)
		for _, k := range tc.changes {
			want[k] = true
		}
		keys := make([]string, 0, len(before))
		for key := range before {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			changed := before[key] != after[key]
			if changed != want[cellKind(key)] {
				t.Errorf("mutating Config.%s: cell %s digest changed=%v, want %v", tc.field, key, changed, !changed)
			}
		}
	}
}

// TestMeasureFunctionsAreTopLevel guards the structural half of cache
// soundness: a cell's measure may see its world and its In and nothing
// else. Every value given to a cell's measure field must name a
// top-level function that mentions neither Runner nor Config, so a
// closure or a *Runner method cannot smuggle r.cfg past the digest
// again.
func TestMeasureFunctionsAreTopLevel(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	funcs := make(map[string]*ast.FuncDecl) // top-level, no receiver
	cellTypes := map[string]bool{"cell": true}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						funcs[d.Name.Name] = d
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok && isCellType(ts.Type, cellTypes) {
							cellTypes[ts.Name.Name] = true // an alias such as accessCell
						}
					}
				}
			}
		}
	}

	checked := 0
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "measure" {
						t.Errorf("%s: measure assigned outside a cell literal", fset.Position(n.Pos()))
					}
				}
			case *ast.CompositeLit:
				if !isCellType(n.Type, cellTypes) {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						t.Errorf("%s: cell literal must use keyed fields", fset.Position(elt.Pos()))
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "measure" {
						continue
					}
					id, ok := kv.Value.(*ast.Ident)
					if !ok {
						t.Errorf("%s: measure must name a top-level function, not a func literal or method value", fset.Position(kv.Value.Pos()))
						continue
					}
					decl, ok := funcs[id.Name]
					if !ok {
						t.Errorf("%s: measure %s is not a top-level function of this package", fset.Position(id.Pos()), id.Name)
						continue
					}
					checked++
					ast.Inspect(decl, func(m ast.Node) bool {
						if x, ok := m.(*ast.Ident); ok && (x.Name == "Runner" || x.Name == "Config") {
							t.Errorf("%s: measure function %s mentions %s", fset.Position(x.Pos()), id.Name, x.Name)
						}
						return true
					})
				}
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("guard found no cell literal with a measure field: it no longer matches how cells are written")
	}
}

// isCellType reports whether a type expression is the generic cell
// (instantiated or not) or one of its known aliases.
func isCellType(e ast.Expr, known map[string]bool) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return known[e.Name]
	case *ast.IndexExpr:
		return isCellType(e.X, known)
	case *ast.IndexListExpr:
		return isCellType(e.X, known)
	}
	return false
}
