package gs3

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestDocComments is the doc-comment lint pass for the simulation
// substrate, the data plane, and the protocol core: every exported
// symbol of internal/sim, internal/netsim, internal/runner,
// internal/traffic, internal/gather, internal/core, internal/radio,
// and internal/adversary must carry a doc comment (these are the
// packages whose thread-safety contracts the concurrency model depends
// on — including the single-goroutine event engine and the node store
// — so their godoc is required to state them).
func TestDocComments(t *testing.T) {
	for _, dir := range []string{
		"internal/sim", "internal/netsim", "internal/runner",
		"internal/traffic", "internal/gather",
		"internal/core", "internal/radio", "internal/adversary",
	} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
				checkFileDocs(t, fset, filepath.Base(path), file)
			}
		}
	}
}

// receiverExported reports whether fn is a plain function or a method
// whose receiver type is itself exported.
func receiverExported(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	typ := fn.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

func checkFileDocs(t *testing.T, fset *token.FileSet, name string, file *ast.File) {
	t.Helper()
	report := func(pos token.Pos, what string) {
		t.Errorf("%s:%d: exported %s has no doc comment", name, fset.Position(pos).Line, what)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			// Methods on unexported types (e.g. heap plumbing) are not
			// part of the package's godoc surface.
			if d.Name.IsExported() && d.Doc == nil && receiverExported(d) {
				report(d.Pos(), "func "+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && d.Doc == nil && s.Doc == nil {
							report(s.Pos(), "value "+n.Name)
						}
					}
				}
			}
		}
	}
}
