package rtmap

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rtmap/internal/cluster"
	"rtmap/internal/metrics"
	"rtmap/internal/serve"
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

// TestMetricsDocumented holds the "Metrics catalogue" table in
// docs/ARCHITECTURE.md to what the two serving tiers actually export:
// every family either tier's registry declares has a row giving its
// type, labels, tier and meaning (the # HELP text, verbatim), and every
// row names a family that still exists.
func TestMetricsDocumented(t *testing.T) {
	silent := func(string, ...any) {}
	node := serve.New(serve.Options{Logf: silent})
	defer node.Shutdown(context.Background())
	router, err := cluster.New(cluster.Options{Nodes: []string{"http://node"}, Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, tier := range []struct {
		name string
		fams []*metrics.Family
	}{{"node", node.MetricFamilies()}, {"router", router.MetricFamilies()}} {
		for _, f := range tier.fams {
			labels := ""
			if len(f.Labels) > 0 {
				labels = "`" + strings.Join(f.Labels, "`, `") + "`"
			}
			row := func(tier string) string {
				return fmt.Sprintf("| `%s` | %s | %s | %s | %s |", f.Name, f.Kind, labels, tier, f.Help)
			}
			if want[f.Name] == row("node") {
				want[f.Name] = row("both") // the runtime families
			} else if want[f.Name] != "" {
				t.Errorf("family %s means different things on the two tiers", f.Name)
			} else {
				want[f.Name] = row(tier.name)
			}
		}
	}
	if len(want) < 50 {
		t.Fatalf("only %d families declared — registries not wired?", len(want))
	}

	doc, err := os.ReadFile(filepath.Join("docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := strings.Cut(string(doc), "### Metrics catalogue\n")
	if !found {
		t.Fatal("docs/ARCHITECTURE.md has no \"### Metrics catalogue\" section")
	}
	table, _, _ = strings.Cut(table, "\n#")
	documented := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		name, _, isRow := strings.Cut(strings.TrimPrefix(line, "| `"), "`")
		if !isRow || !strings.HasPrefix(line, "| `rtmap_") {
			continue
		}
		documented[name] = true
		switch {
		case want[name] == "":
			t.Errorf("catalogue row for %s: no tier exports that family any more", name)
		case line != want[name]:
			t.Errorf("catalogue row for %s is stale\n have %s\n want %s", name, line, want[name])
		}
	}
	for name, row := range want {
		if !documented[name] {
			t.Errorf("family %s is exported but not in the catalogue; add\n%s", name, row)
		}
	}
}

// TestPackageMapDocumented holds the package tables to the tree: the
// "Package map" tables of docs/ARCHITECTURE.md name exactly the
// directories under internal/ that hold Go files, and README's module
// table names no package that does not exist.
func TestPackageMapDocumented(t *testing.T) {
	have := map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == "testdata":
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			have[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(have) < 10 {
		t.Fatalf("only %d internal packages found — running outside the repo root?", len(have))
	}
	section := func(file, heading string) map[string]bool {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		_, body, found := strings.Cut(string(src), "\n## "+heading+"\n")
		if !found {
			t.Fatalf("%s has no \"## %s\" section", file, heading)
		}
		body, _, _ = strings.Cut(body, "\n## ")
		return tablePaths(body)
	}
	named := section(filepath.Join("docs", "ARCHITECTURE.md"), "Package map")
	for p := range have {
		if !named[p] {
			t.Errorf("docs/ARCHITECTURE.md: the package map has no row for %s", p)
		}
	}
	for p := range named {
		if !have[p] {
			t.Errorf("docs/ARCHITECTURE.md: the package map names %s, which holds no Go files", p)
		}
	}
	for p := range section("README.md", "Module layout") {
		if !have[p] {
			t.Errorf("README.md: the module table names %s, which holds no Go files", p)
		}
	}
}

// tablePaths returns the internal/ paths a markdown section's table rows
// name in backquotes in their first cell.
func tablePaths(section string) map[string]bool {
	paths := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| ") {
			continue
		}
		cell, _, _ := strings.Cut(line[2:], " | ")
		for i, s := range strings.Split(cell, "`") {
			if i%2 == 1 && strings.HasPrefix(s, "internal/") {
				paths[s] = true
			}
		}
	}
	return paths
}

// eachNonTestGoFile visits every non-test Go file of the tree, skipping
// hidden directories and the directories skip names (slash paths).
func eachNonTestGoFile(t *testing.T, skip []string, visit func(path string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") || slices.Contains(skip, filepath.ToSlash(path)) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			visit(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneExposition keeps internal/metrics the only renderer of the
// Prometheus text format: no other non-test Go file may spell a # TYPE
// line.
func TestOneExposition(t *testing.T) {
	eachNonTestGoFile(t, []string{"internal/metrics"}, func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "# TYPE") {
			t.Errorf("%s renders exposition text itself; declare the family on a metrics.Registry", path)
		}
	})
}

// TestOracleOffServingPath keeps the oracle independent of what it
// checks: the software convolution (model.ConvReference) is named by no
// non-test Go file outside internal/model, and nothing under
// internal/serve or internal/sim names ForwardInt — served inferences
// run on the engine, and only tests, rtmap.Verify and the benchmark's
// checker compare against the reference. Parsed, so comments may.
func TestOracleOffServingPath(t *testing.T) {
	fset := token.NewFileSet()
	eachNonTestGoFile(t, []string{"internal/model", "benchmark"}, func(path string) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		slash := filepath.ToSlash(path)
		serving := strings.HasPrefix(slash, "internal/serve/") || strings.HasPrefix(slash, "internal/sim/")
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (id.Name == "ConvReference" || serving && id.Name == "ForwardInt") {
				t.Errorf("%s: %s is the oracle's; serving code runs the engine", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	})
}

// TestPaperValuesOnlyInLedger keeps ledger.go the one place a paper value
// is written down: no string or float literal in another non-test Go file
// quotes one. The values are the Paper fields of ledger.go's rows. A
// literal quotes one when a number after the word "paper" equals any of
// them, or when a number distinctive enough to be a quote (three or more
// digits with a decimal point, or four or more without) equals one; a
// decimal equals a value it rounds to, an integer only itself. Format
// verbs are not numbers, and comments may cite what they like.
func TestPaperValuesOnlyInLedger(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ledger.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var paper []float64
	ast.Inspect(f, func(n ast.Node) bool {
		kv, ok := n.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		key, isID := kv.Key.(*ast.Ident)
		lit, isLit := kv.Value.(*ast.BasicLit)
		if isID && isLit && key.Name == "Paper" {
			v, err := strconv.ParseFloat(lit.Value, 64)
			if err != nil {
				t.Fatal(err)
			}
			paper = append(paper, v)
		}
		return true
	})
	if len(paper) < 30 {
		t.Fatalf("only %d paper values found in ledger.go", len(paper))
	}
	verb := regexp.MustCompile(`%[-+# 0]*\d*(\.\d+)?[a-zA-Z%]`)
	number := regexp.MustCompile(`\d+(\.\d+)?`)
	equalsPaper := func(num string) bool {
		v, _ := strconv.ParseFloat(num, 64)
		half := 0.0
		if _, frac, ok := strings.Cut(num, "."); ok {
			half = 0.5 * math.Pow(10, -float64(len(frac)))
		}
		for _, p := range paper {
			if math.Abs(v-p) <= half {
				return true
			}
		}
		return false
	}
	distinctive := func(num string) bool {
		digits := strings.TrimLeft(strings.Replace(num, ".", "", 1), "0")
		if strings.Contains(num, ".") {
			return len(digits) >= 3
		}
		return len(digits) >= 4
	}
	eachNonTestGoFile(t, nil, func(path string) {
		if path == "ledger.go" {
			return
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING && lit.Kind != token.FLOAT {
				return true
			}
			text := verb.ReplaceAllString(lit.Value, " ")
			after := strings.Index(strings.ToLower(text), "paper")
			for _, m := range number.FindAllStringIndex(text, -1) {
				num := text[m[0]:m[1]]
				if (after >= 0 && m[0] > after || distinctive(num)) && equalsPaper(num) {
					t.Errorf("%s: %s quotes the paper's %s; read it from the ledger (ledger.go)",
						fset.Position(lit.Pos()), lit.Value, num)
					break
				}
			}
			return true
		})
	})
}
