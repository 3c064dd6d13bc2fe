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

// TestDocComments is the doc-comment lint pass over the public gs3
// package, both commands and every package under internal/: each
// exported symbol must carry a doc comment. The concurrency model
// depends on the thread-safety contracts this godoc states — the
// single-goroutine event engine, the node store, the runner's fan-out
// — and every other package follows the same rule.
func TestDocComments(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	dirs = append(dirs, ".", "cmd/gs3sim", "cmd/gs3bench")
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
				checkFileDocs(t, fset, filepath.Join(dir, filepath.Base(path)), file)
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
