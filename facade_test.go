package smrseek_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// facadeFiles are the files that make up the package's public surface.
var facadeFiles = []string{"smrseek.go", "layers.go", "device.go"}

// TestFacadeNamesHaveUsers keeps the public surface to names something
// uses. An exported facade name must be referenced as smrseek.Name by a
// file under cmd/ or bench/ or by example_test.go, or by the declaration
// of another facade name that is itself kept. Other root tests do not
// count as users.
func TestFacadeNamesHaveUsers(t *testing.T) {
	fset := token.NewFileSet()
	refs := map[string][]string{} // facade name -> facade names its declaration references
	for _, name := range facadeFiles {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					refs[d.Name.Name] = localIdents(d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							refs[s.Name.Name] = localIdents(s.Type)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								refs[n.Name] = localIdents(s)
							}
						}
					}
				}
			}
		}
	}

	var users []string
	for _, dir := range []string{"cmd", "bench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				users = append(users, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	users = append(users, "example_test.go")

	kept := map[string]bool{}
	var queue []string
	keep := func(name string) {
		if _, ok := refs[name]; ok && !kept[name] {
			kept[name] = true
			queue = append(queue, name)
		}
	}
	for _, path := range users {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "smrseek" {
					keep(sel.Sel.Name)
				}
			}
			return true
		})
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		for _, r := range refs[name] {
			keep(r)
		}
	}

	var unused []string
	for name := range refs {
		if !kept[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("exported facade names with no user in cmd/, bench/ or example_test.go: %s", strings.Join(unused, ", "))
	}
}

// localIdents returns the unqualified identifiers under n, skipping the
// selected half of selector expressions (pkg.Name, v.Field) so that only
// references to the root package's own names remain.
func localIdents(n ast.Node) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			out = append(out, localIdents(n.X)...)
			return false
		case *ast.Ident:
			out = append(out, n.Name)
		}
		return true
	})
	return out
}
