package smrseek_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
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
		eachDecl(f, func(names []string, n ast.Node) {
			for _, name := range names {
				if ast.IsExported(name) {
					refs[name] = localIdents(n)
				}
			}
		})
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

// TestInternalNamesHaveUsers applies the same rule to internal/: every
// exported top-level func, type, var and const declared in a non-test
// file under internal/ must be referenced by a non-test file of the root
// module or of bench/, other than by its own declaration. A reference is
// an unqualified identifier in a file of the declaring package, or an
// import-qualified selector (pkg.Name) anywhere else. An exported method
// declared there must have its name used as a selector (v.Name) by such a
// file outside its own body, or share its name with a method of an
// interface declared in such a file or with one of stdlibMethods, since a
// syntactic scan cannot see calls made through an interface.
func TestInternalNamesHaveUsers(t *testing.T) {
	type file struct {
		dir string
		ast *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]map[string]bool{} // package dir -> exported names
	methods := map[string]string{}           // "dir.Recv.Name" -> Name
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		if declared[f.dir] == nil {
			declared[f.dir] = map[string]bool{}
		}
		eachDecl(f.ast, func(names []string, n ast.Node) {
			for _, name := range names {
				if ast.IsExported(name) {
					declared[f.dir][name] = true
				}
			}
			if d, ok := n.(*ast.FuncDecl); ok && d.Recv != nil && d.Name.IsExported() {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch g := recv.(type) {
				case *ast.IndexExpr:
					recv = g.X
				case *ast.IndexListExpr:
					recv = g.X
				}
				methods[f.dir+"."+recv.(*ast.Ident).Name+"."+d.Name.Name] = d.Name.Name
			}
		})
	}

	used := map[string]bool{}      // "dir.Name"
	selected := map[string]bool{}  // field and method names used as v.Name
	satisfies := map[string]bool{} // method names of declared interfaces
	for _, name := range stdlibMethods {
		satisfies[name] = true
	}
	for _, f := range files {
		own := declared[f.dir]
		imports := map[string]string{} // local name -> package dir, "" outside internal/
		for _, imp := range f.ast.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			dir, ok := strings.CutPrefix(path, "smrseek/")
			if !ok || declared[dir] == nil {
				dir = ""
			}
			imports[name] = dir
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						satisfies[name.Name] = true
					}
				}
			}
			return true
		})
		var self []string // names the declaration being walked declares
		var method string // the method being walked, whose own name is no use
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						if dir != "" {
							used[dir+"."+n.Sel.Name] = true
						}
						return false
					}
				}
				if n.Sel.Name != method {
					selected[n.Sel.Name] = true
				}
				ast.Inspect(n.X, visit) // n.Sel is a field or method
				return false
			case *ast.Ident:
				if own[n.Name] && !slices.Contains(self, n.Name) {
					used[f.dir+"."+n.Name] = true
				}
			}
			return true
		}
		eachDecl(f.ast, func(names []string, n ast.Node) {
			self, method = names, ""
			if d, ok := n.(*ast.FuncDecl); ok {
				if d.Recv != nil {
					method = d.Name.Name
				}
				// Neither a method's receiver nor its name is a use.
				ast.Inspect(d.Type, visit)
				if d.Body != nil {
					ast.Inspect(d.Body, visit)
				}
				return
			}
			ast.Inspect(n, visit)
		})
	}

	var unused []string
	for dir, names := range declared {
		for name := range names {
			if !used[dir+"."+name] {
				unused = append(unused, strings.TrimPrefix(dir, "internal/")+"."+name)
			}
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("exported names under internal/ with no user in a non-test file: %s", strings.Join(unused, ", "))
	}

	unused = nil
	for key, name := range methods {
		if !selected[name] && !satisfies[name] && methodExemptions[key] == "" {
			unused = append(unused, strings.TrimPrefix(key, "internal/"))
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("exported methods under internal/ with no user in a non-test file: %s", strings.Join(unused, ", "))
	}
	for key := range methodExemptions {
		if _, ok := methods[key]; !ok {
			t.Errorf("exempt method %s is not declared", key)
		}
	}
}

// stdlibMethods are the method names that the standard library calls
// through its own interfaces (fmt.Stringer, error, sort.Interface,
// heap.Interface, http.Handler).
var stdlibMethods = []string{"String", "Error", "Unwrap", "Len", "Less", "Swap", "Push", "Pop", "ServeHTTP"}

// methodExemptions are the exported methods kept without a non-test
// user, keyed "dir.Recv.Name", each with its reason.
var methodExemptions = map[string]string{
	"internal/journal.Log.SetFailer": "the fault seam through which internal/core's crash tests " +
		"fail the simulator's journal appends; an export_test.go cannot serve another package",
}

// eachDecl calls fn for every function declaration in f and every type,
// var and const spec, with the package-level names it declares: none
// for a method.
func eachDecl(f *ast.File, fn func(names []string, n ast.Node)) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			var names []string
			if d.Recv == nil {
				names = []string{d.Name.Name}
			}
			fn(names, d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					fn([]string{s.Name.Name}, s)
				case *ast.ValueSpec:
					var names []string
					for _, n := range s.Names {
						names = append(names, n.Name)
					}
					fn(names, s)
				}
			}
		}
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
