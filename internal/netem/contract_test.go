package netem_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/testkit/streamtest"
)

// TestStreamContractConn holds netem's conn to the stream contract.
func TestStreamContractConn(t *testing.T) {
	streamtest.Run(t, func(t *testing.T) (*netem.Clock, netem.Stream, netem.Stream) {
		n, a, b := streamtest.Conns(t, 0)
		return n.Clock(), a, b
	})
}

// TestEveryStreamHasARow: every non-test type under internal/ that
// declares ReadFullEvent has a row, a test named TestStreamContract and
// its type in its own directory, unless it is exempt: netem.Inbox is a
// read half, held to the contract through the pt.Stream and tor.Stream
// rows, and streamtest's Plain plays a protocol over bytes with no clock
// to wait on.
func TestEveryStreamHasARow(t *testing.T) {
	exempt := []string{"netem.Inbox", "streamtest.plain"}
	streams, rows := map[string]string{}, map[string]bool{} // by directory/lower-case type
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			switch test := strings.HasSuffix(path, "_test.go"); {
			case !ok:
			case test && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "TestStreamContract"):
				rows[filepath.Dir(path)+"/"+strings.ToLower(strings.TrimPrefix(fn.Name.Name, "TestStreamContract"))] = true
			case !test && fn.Recv != nil && fn.Name.Name == "ReadFullEvent":
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if typ := recv.(*ast.Ident).Name; !slices.Contains(exempt, f.Name.Name+"."+typ) {
					streams[filepath.Dir(path)+"/"+strings.ToLower(typ)] = f.Name.Name + "." + typ
				}
			}
		}
		return nil
	})
	if err != nil || len(streams) < 4 {
		t.Fatalf("found %v declaring ReadFullEvent: %v", streams, err)
	}
	for key, typ := range streams {
		if !rows[key] {
			t.Errorf("%s (%s) declares ReadFullEvent and has no streamtest row, a TestStreamContract named for it", typ, key)
		}
	}
}
