package rtmap

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPackageDocs is the documentation gate CI runs: every internal/
// package must carry its package-level documentation in a doc.go file.
// Keeping the package comment in a dedicated file (rather than whichever
// source file happens to be first) makes it obvious where to update it
// when a package's responsibilities grow.
func TestPackageDocs(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("only %d internal packages found — running outside the repo root?", len(dirs))
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		docPath := filepath.Join("internal", d.Name(), "doc.go")
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, docPath, nil, parser.ParseComments)
		if err != nil {
			t.Errorf("package internal/%s: missing or unparsable doc.go: %v", d.Name(), err)
			continue
		}
		if f.Doc == nil || strings.TrimSpace(f.Doc.Text()) == "" {
			t.Errorf("package internal/%s: doc.go has no package doc comment", d.Name())
			continue
		}
		if !strings.HasPrefix(f.Doc.Text(), "Package "+f.Name.Name) {
			t.Errorf("package internal/%s: package comment must start %q, got %q",
				d.Name(), "Package "+f.Name.Name, firstLine(f.Doc.Text()))
		}
	}
}

// TestInternalPackagesImported makes "packages nothing imports are
// deleted" a gate: every internal/* directory must be imported by at
// least one non-test Go file outside itself.
func TestInternalPackagesImported(t *testing.T) {
	const prefix = "rtmap/internal/"
	imported := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			name, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), prefix)
			if ok && !strings.HasPrefix(filepath.ToSlash(path), "internal/"+name+"/") {
				imported[name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && !imported[d.Name()] {
			t.Errorf("package internal/%s: no non-test file outside it imports it — delete it or use it", d.Name())
		}
	}
}

// TestExportedDocsRootAPI audits the public API file: every exported
// symbol rtmap.go declares must have a doc comment (the godoc surface is
// the contract the serving and benchmark tools are written against).
func TestExportedDocsRootAPI(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "rtmap.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if f.Doc == nil {
		t.Error("rtmap.go: missing package doc comment")
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				t.Errorf("rtmap.go:%d: exported func %s has no doc comment",
					fset.Position(d.Pos()).Line, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && sp.Doc == nil && d.Doc == nil {
						t.Errorf("rtmap.go:%d: exported type %s has no doc comment",
							fset.Position(sp.Pos()).Line, sp.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range sp.Names {
						if name.IsExported() && sp.Doc == nil && d.Doc == nil {
							t.Errorf("rtmap.go:%d: exported value %s has no doc comment",
								fset.Position(name.Pos()).Line, name.Name)
						}
					}
				}
			}
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
