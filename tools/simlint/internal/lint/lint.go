// Package lint is a minimal go/analysis-style framework for the simlint
// vettool. It exists because this repository builds offline against the
// standard library only: golang.org/x/tools is not available, so the
// Analyzer/Pass surface, the go-vet unitchecker protocol and the
// analysistest harness are reimplemented here in the smallest form the
// eight simlint analyzers need. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the analyzers can migrate verbatim
// if that dependency ever lands.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named static check. Run inspects a single type-checked
// package via the Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name is the identifier used in diagnostics and in
	// //simlint:allow directives. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph description shown by usage text and
	// DESIGN.md's rule table.
	Doc string
	// Run performs the check.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one reported finding, positioned and attributed to the
// analyzer that produced it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// Analyzers whose contract covers only simulation code proper (rawgo,
// maprange) use it to exempt test drivers.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	name := p.Fset.Position(pos).Filename
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

// RunPackage runs every analyzer over one type-checked package, applies
// the //simlint:allow directive layer (see directive.go) and returns the
// surviving diagnostics sorted by position. Directive-syntax errors are
// themselves diagnostics (analyzer "directive") and cannot be
// suppressed.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	directives, diags := collectDirectives(fset, files, known, pkg.Path())

	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			diags:     &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}
	for _, d := range raw {
		if !suppressed(directives, d) {
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
