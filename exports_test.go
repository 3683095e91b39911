package sparsecut

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed names the exported identifiers that no non-test code
// references, each with the reason it stays. Keys are the package
// directory, a dot, and the name (Type.Method for methods).
var testOnlyAllowed = map[string]string{
	"internal/flight.MsgNone":             "wire constant: the Msg value of a record that carries no message",
	"internal/stats.KSDistance":           "shared test support: the avgtime, scenario and rng tests compare samples with it",
	"internal/graph.Star":                 "shared test support: a fixture graph of the sim and spectral tests",
	"internal/graph.Grid":                 "shared test support: a fixture graph of the sim, syncsim and spectral tests",
	"internal/gossip.PushSum.TotalMass":   "the push-sum mass invariant that ROADMAP item 6 reads",
	"internal/gossip.PushSum.TotalWeight": "the push-sum weight invariant that ROADMAP item 6 reads",
}

// TestNoTestOnlyExports keeps the count of exported names that only tests
// use at zero: every exported name in non-test Go under the module,
// perfbench included, must be used by a CLI, an example, perfbench or
// another non-test path, or be listed in testOnlyAllowed.
func TestNoTestOnlyExports(t *testing.T) {
	unused := unusedExports(t, ".")
	for _, k := range unused {
		if _, ok := testOnlyAllowed[k]; !ok {
			t.Errorf("%s is not used outside _test.go files: delete it, move it into a _test.go file, or allowlist it with a reason", k)
		}
	}
	for k := range testOnlyAllowed {
		if !slices.Contains(unused, k) {
			t.Errorf("allowlist entry %s is stale: the name is gone or non-test code now uses it", k)
		}
	}
}

// unusedExports parses every non-test .go file under root and returns,
// sorted, the exported top-level names and methods that no non-test file
// references. Package-level names are matched by package: pkg.Name
// selectors through the file's imports, and bare names inside their own
// package. Methods are matched by name, since a receiver's type is unknown
// without type checking: a method counts as used if any selector has its
// name. A declaration's references to itself do not count.
func unusedExports(t *testing.T, root string) []string {
	t.Helper()
	module := modulePath(t, filepath.Join(root, "go.mod"))
	defs := map[string]bool{}  // "dir.Name" or "dir.Type.Method" → is a method
	used := map[string]bool{}  // "dir.Name" is referenced
	calls := map[string]bool{} // a selector names this method
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir = filepath.ToSlash(dir)
		imports := map[string]string{} // local name → package dir
		for _, is := range f.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			rel, ok := strings.CutPrefix(p, module)
			if !ok || rel != "" && rel[0] != '/' {
				continue
			}
			local := p[strings.LastIndex(p, "/")+1:]
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = "."
			if rel != "" {
				imports[local] = rel[1:]
			}
		}
		for _, decl := range f.Decls {
			var self []string              // the keys this declaration defines
			names := map[*ast.Ident]bool{} // and the identifiers that name them
			method := ""                   // a method does not use itself by calling itself
			define := func(id *ast.Ident, k string, isMethod bool) {
				self = append(self, k)
				names[id] = true
				if id.IsExported() {
					defs[k] = isMethod
				}
			}
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					define(d.Name, dir+"."+d.Name.Name, false)
				} else {
					define(d.Name, dir+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name, true)
					method = d.Name.Name
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						define(s.Name, dir+"."+s.Name.Name, false)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							define(n, dir+"."+n.Name, false)
						}
					}
				}
			}
			use := func(k string) {
				if !slices.Contains(self, k) {
					used[k] = true
				}
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if p, ok := imports[x.Name]; ok {
							use(p + "." + n.Sel.Name)
							return false
						}
					}
					if n.Sel.Name != method {
						calls[n.Sel.Name] = true
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Field:
					// Field and parameter names are not references.
					ast.Inspect(n.Type, visit)
					return false
				case *ast.Ident:
					if n.IsExported() && !names[n] {
						use(dir + "." + n.Name)
					}
				}
				return true
			}
			ast.Inspect(decl, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for k, isMethod := range defs {
		if isMethod && !calls[k[strings.LastIndex(k, ".")+1:]] || !isMethod && !used[k] {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// recvName is the type name of a method receiver: T for T, *T, T[P] and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func modulePath(t *testing.T, gomod string) string {
	t.Helper()
	b, err := os.ReadFile(gomod)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatalf("%s: no module line", gomod)
	return ""
}
