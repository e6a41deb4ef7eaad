package snakes_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptRenames lists the root's renames of other packages' names that stay
// although no example and no benchmark file names them, each with the reason
// it belongs to the paper's API. cmd/snakestore may name a root rename only
// if it is here.
var keptRenames = map[string]string{
	"Class":              "taken by Workload.Set and Reorganizer.Observe, returned by Schema.Classes",
	"Dimension":          "taken by NewSchema and BuildSchema",
	"Region":             "taken by Schema.ClassOfRegion, returned by GridQuery.Region",
	"Range":              "the element of a Region",
	"FileStore":          "returned by Strategy.CreateFileStore and OpenFileStore",
	"Tree":               "taken by SchemaFromTrees, returned by NewTree",
	"Order":              "returned by Strategy.Materialize and the curve constructors",
	"Layout":             "returned by Strategy.Pack",
	"Migration":          "returned by Strategy.StartMigration",
	"ReorgConfig":        "taken by NewReorganizer",
	"ReorgEvaluation":    "taken by the Reorganizer.OnEvaluate hook",
	"ErrReorgInProgress": "returned by Reorganizer.Trigger",
	"ErrCorruptPage":     "returned by FileStore reads and Verify",
	"ErrGridTooLarge":    "returned by Strategy.Materialize",
	"ErrCellTooLarge":    "returned by Strategy.CreateFileStore",
}

// TestRootNamesHaveOutsideCallers keeps the root package the paper's API: an
// exported name that only renames something in another package (a type
// alias, a var or const whose value is another package's name, a function
// whose body is one call into an internal package) must be named as
// snakes.<Name> in examples/ or benchmark/, or be in keptRenames. The daemon
// reaches its machinery through the internal packages, so cmd/snakestore may
// name no root rename outside keptRenames.
func TestRootNamesHaveOutsideCallers(t *testing.T) {
	renames := rootRenames(t)
	used := map[string]bool{}
	for _, dir := range []string{"examples", "benchmark"} {
		for name := range rootNamesIn(t, dir) {
			used[name] = true
		}
	}
	var bad []string
	for _, name := range sortedKeys(renames) {
		if !used[name] && keptRenames[name] == "" {
			bad = append(bad, name+" ("+renames[name]+")")
		}
	}
	if len(bad) > 0 {
		t.Errorf("root renames with no caller in examples/ or benchmark/ and no reason in keptRenames:\n  %s",
			strings.Join(bad, "\n  "))
	}
	for _, name := range sortedKeys(keptRenames) {
		if renames[name] == "" {
			t.Errorf("keptRenames names %s, which is not a root rename", name)
		}
	}
	daemon := rootNamesIn(t, filepath.Join("cmd", "snakestore"))
	for _, name := range sortedKeys(daemon) {
		if renames[name] != "" && keptRenames[name] == "" {
			t.Errorf("%s names snakes.%s; name %s instead", daemon[name], name, renames[name])
		}
	}
}

// rootRenames maps each exported rename in the root's non-test files to the
// name it renames.
func rootRenames(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		imports := map[string]string{} // local name → import path
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		selector := func(e ast.Expr) string {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return ""
			}
			if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
				return x.Name + "." + sel.Sel.Name
			}
			return ""
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Assign.IsValid() && s.Name.IsExported() {
							out[s.Name.Name] = types.ExprString(s.Type)
						}
					case *ast.ValueSpec:
						for i, n := range s.Names {
							if i < len(s.Values) && n.IsExported() {
								if target := selector(s.Values[i]); target != "" {
									out[n.Name] = target
								}
							}
						}
					}
				}
			case *ast.FuncDecl:
				if d.Recv != nil || !d.Name.IsExported() || d.Body == nil || len(d.Body.List) != 1 {
					continue
				}
				var call ast.Expr
				switch s := d.Body.List[0].(type) {
				case *ast.ReturnStmt:
					if len(s.Results) == 1 {
						call = s.Results[0]
					}
				case *ast.ExprStmt:
					call = s.X
				}
				if c, ok := call.(*ast.CallExpr); ok {
					if target := selector(c.Fun); target != "" && strings.Contains(imports[strings.Split(target, ".")[0]], "/internal/") {
						out[d.Name.Name] = target + "()"
					}
				}
			}
		}
	}
	return out
}

// rootNamesIn maps each name a Go file under dir selects from the root
// package (imported as "repro") to the first file that does.
func rootNamesIn(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		local := ""
		for _, im := range f.Imports {
			if im.Path.Value == `"repro"` {
				local = "snakes"
				if im.Name != nil {
					local = im.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local && out[sel.Sel.Name] == "" {
					out[sel.Sel.Name] = path
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
