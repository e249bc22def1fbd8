package model

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The oracle stays independent of what it checks: internal/model and
// internal/tensor, and every module package they import, import none of
// the engine's packages — the AP machine, its simulator, the compiler's
// code generator and DFG, or the compile driver.
func TestOracleImportsNoEngine(t *testing.T) {
	const mod = "rtmap/internal/"
	engine := map[string]bool{}
	for _, p := range []string{"ap", "sim", "codegen", "dfg", "core"} {
		engine[mod+p] = true
	}
	// via records how the walk reached each package, to name the chain.
	via := map[string]string{mod + "model": "", mod + "tensor": ""}
	queue := []string{mod + "model", mod + "tensor"}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		dir := filepath.Join("..", strings.TrimPrefix(pkg, mod))
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files in %s (%v)", pkg, dir, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, is := range af.Imports {
				imp, _ := strconv.Unquote(is.Path.Value)
				if !strings.HasPrefix(imp, mod) {
					continue
				}
				if engine[imp] {
					chain := imp
					for p := pkg; p != ""; p = via[p] {
						chain = p + " → " + chain
					}
					t.Errorf("%s imports an engine package: %s", f, chain)
				}
				if _, ok := via[imp]; !ok {
					via[imp] = pkg
					queue = append(queue, imp)
				}
			}
		}
	}
}
