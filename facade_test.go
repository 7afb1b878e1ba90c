package smrseek_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
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

// TestInternalNamesHaveUsers applies the same rule to internal/, by type
// rather than by name: the non-test files of the root module and of
// bench/ are type-checked as one program, and deadNames lists what no
// non-test file uses.
func TestInternalNamesHaveUsers(t *testing.T) {
	t.Parallel()
	p, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	dead, stale := p.deadNames(methodExemptions)
	if len(dead) > 0 {
		t.Errorf("names under internal/ with no user in a non-test file:\n\t%s", strings.Join(dead, "\n\t"))
	}
	for _, key := range stale {
		t.Errorf("exempt name %s is not declared", key)
	}
}

// TestDeadNamesFinds runs deadNames over a small module: one kind of dead
// name each, beside names that the check must keep.
func TestDeadNamesFinds(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"internal/x/x.go": `package x

import (
	"fmt"
	"sync/atomic"
)

type T struct {
	used  int
	n     int
	hits  atomic.Int64
	saved int
	made  int   // set only by its literal key
	log   []int // read only to append to itself
}

type key struct{ a, b int } // a map key: hashing reads its fields

type shown struct{ v int } // fmt prints its fields

type pair struct{ x int } // == reads its fields

var seen = map[key]bool{}

func New() *T {
	t := &T{used: 1, made: 2}
	t.n++
	t.hits.Add(1)
	t.saved = t.used
	t.log = append(t.log, t.used)
	seen[key{a: 1, b: 2}] = true
	_ = fmt.Sprint(shown{v: 1})
	_ = pair{x: 1} == pair{x: 2}
	return t
}

func (t *T) Read() int      { return t.used }    // no user: a name-only scan sees os.File.Read
func (t *T) Size() int      { return t.used }    // kept: makes *T a Sizer
func (t *T) String() string { return "t" }       // kept: fmt calls it
func (t *T) Saved() int     { return t.saved }   // used below

type G[K comparable] struct{ m map[K]int }

func (g *G[K]) Get(k K) int { return g.m[k] }
func (g *G[K]) Len() int    { return len(g.m) } // no user

type Unused struct{} // named only by its own method's receiver

func (Unused) String() string { return "u" }
`,
		"internal/x/x_test.go": `package x

func useN(t *T) int { return t.n }
`,
		"cmd/y/main.go": `package main

import (
	"fmt"
	"os"

	"smrseek/internal/x"
)

type Sizer interface{ Size() int }

func main() {
	var s Sizer = x.New()
	g := &x.G[int]{}
	os.Stdin.Read(nil)
	fmt.Println(s, g.Get(1), x.New().Saved())
}
`,
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := loadProgram(root)
	if err != nil {
		t.Fatal(err)
	}
	dead, stale := p.deadNames(map[string]string{
		"internal/x.T.String": "exempt and also kept",
		"internal/x.T.gone":   "a field that no longer exists",
	})
	want := []string{
		"internal/x.G.Len: method with no use",
		"internal/x.T.Read: method with no use",
		"internal/x.T.hits: field that is only written",
		"internal/x.T.log: field that is only written",
		"internal/x.T.made: field that is only written",
		"internal/x.T.n: field that is only written",
		"internal/x.Unused: top-level name with no use",
	}
	if !slices.Equal(dead, want) {
		t.Errorf("dead = %q, want %q", dead, want)
	}
	if !slices.Equal(stale, []string{"internal/x.T.gone"}) {
		t.Errorf("stale = %q, want the one missing field", stale)
	}
}

// program is the non-test Go under a directory, type-checked as one:
// smrseek and smrseek/... import paths resolve by directory, nested
// modules such as bench/ included, and the standard library comes from the
// gc compiler's export data.
type program struct {
	fset   *token.FileSet
	std    types.Importer
	info   types.Info
	parsed map[string][]*ast.File    // each package's files, by import path
	pkgs   map[string]*types.Package // the packages checked so far
}

// loadProgram parses the non-test Go files of every directory under root,
// skipping hidden directories and testdata, and type-checks them.
func loadProgram(root string) (*program, error) {
	fset := token.NewFileSet()
	p := &program{
		fset: fset,
		info: types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		parsed: map[string][]*ast.File{},
		pkgs:   map[string]*types.Package{},
	}
	// The interfaces through which the standard library calls methods that
	// the program itself never names.
	callbacks, err := parser.ParseFile(fset, "callbacks.go", `package callbacks

import ("container/heap"; "fmt"; "net/http"; "sort")

type (
	_ fmt.Stringer
	_ error
	_ interface{ Unwrap() error }
	_ sort.Interface
	_ heap.Interface
	_ http.Handler
)`, 0)
	if err != nil {
		return nil, err
	}
	std := []string{"container/heap", "fmt", "net/http", "sort"}
	var order []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		importPath := "smrseek"
		if dir != "." {
			importPath += "/" + filepath.ToSlash(dir)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if p.parsed[importPath] == nil {
			order = append(order, importPath)
		}
		p.parsed[importPath] = append(p.parsed[importPath], f)
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); !local(path) {
				std = append(std, path)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// One go list call finds the export data of every standard package
	// the program imports; left to find it, the gc importer runs go list
	// once per package.
	slices.Sort(std)
	out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, slices.Compact(std)...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		exports[path] = file
	}
	p.std = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	for _, path := range order {
		if _, err := p.Import(path); err != nil {
			return nil, err
		}
	}
	conf := types.Config{Importer: p}
	if _, err := conf.Check("callbacks", fset, []*ast.File{callbacks}, &p.info); err != nil {
		return nil, err
	}
	return p, nil
}

// local reports whether an import path names a package of the program.
func local(path string) bool { return path == "smrseek" || strings.HasPrefix(path, "smrseek/") }

// Import type-checks a package of the program, once, and imports any
// other from export data.
func (p *program) Import(path string) (*types.Package, error) {
	if !local(path) {
		return p.std.Import(path)
	}
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := p.parsed[path]
	if !ok {
		return nil, fmt.Errorf("no Go files for %s", path)
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(path, p.fset, files, &p.info)
	if err != nil {
		return nil, err
	}
	p.pkgs[path] = pkg
	return pkg, nil
}

// deadNames returns, sorted, the names under internal/ that nothing uses:
//   - an exported top-level name or method with no use outside its own
//     declaration, unless the method makes its receiver type (or a pointer
//     to it) satisfy an interface that the program declares or uses or
//     that the standard library calls back through;
//   - an unexported struct field that is written (assigned, incremented,
//     set by a composite-literal key, or the receiver of an atomic Add or
//     Store) and never read. A use on the right of an assignment to the
//     same field (f = append(f, x)) is a write too, and every field of a
//     struct that is a map key or compared with == or != is read.
//
// A method's receiver is not a use of its type, so a type that only its
// own methods name is dead.
//
// Names keyed "dir.Name" or "dir.Type.Name" in exempt are left out, and
// stale lists the exempt keys that name nothing declared.
func (p *program) deadNames(exempt map[string]string) (dead, stale []string) {
	decls := map[types.Object]ast.Node{} // each top-level name and method -> its declaration
	recv := map[*ast.Ident]bool{}        // the identifiers of method receivers
	written := map[*ast.Ident]bool{}     // fields selected as a write target
	write := func(e ast.Expr) types.Object {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				written[x.Sel] = true
				return origin(p.info.Uses[x.Sel])
			default:
				return nil
			}
		}
	}
	hashed := map[*types.Named]bool{} // struct types whose fields a map or == reads
	var hash func(t types.Type)
	hash = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			if !hashed[t.Origin()] {
				hashed[t.Origin()] = true
				hash(t.Underlying())
			}
		case *types.Struct:
			for i := range t.NumFields() {
				hash(t.Field(i).Type())
			}
		case *types.Array:
			hash(t.Elem())
		}
	}
	for _, files := range p.parsed {
		for _, f := range files {
			eachDecl(f, func(_ []string, n ast.Node) {
				switch n := n.(type) {
				case *ast.FuncDecl:
					decls[p.info.Defs[n.Name]] = n
					if n.Recv != nil {
						ast.Inspect(n.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recv[id] = true
							}
							return true
						})
					}
				case *ast.TypeSpec:
					decls[p.info.Defs[n.Name]] = n
				case *ast.ValueSpec:
					for _, name := range n.Names {
						decls[p.info.Defs[name]] = n
					}
				}
			})
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, e := range n.Lhs {
						f := write(e)
						if f == nil || len(n.Rhs) != len(n.Lhs) {
							continue
						}
						ast.Inspect(n.Rhs[i], func(n ast.Node) bool {
							if sel, ok := n.(*ast.SelectorExpr); ok && origin(p.info.Uses[sel.Sel]) == f {
								written[sel.Sel] = true
							}
							return true
						})
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								written[id] = true
							}
						}
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						hash(p.info.TypeOf(n.X))
					}
				case *ast.CallExpr:
					// A struct passed by value as an interface is read:
					// fmt prints its fields, sync.Map hashes it.
					if sig, ok := p.info.TypeOf(n.Fun).(*types.Signature); ok {
						for i, arg := range n.Args {
							var param types.Type
							if last := sig.Params().Len() - 1; i < last || !sig.Variadic() {
								param = sig.Params().At(min(i, last)).Type()
							} else if n.Ellipsis == token.NoPos {
								param = sig.Params().At(last).Type().(*types.Slice).Elem()
							}
							if param != nil && types.IsInterface(param) {
								hash(p.info.TypeOf(arg))
							}
						}
					}
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						fn, _ := p.info.Uses[sel.Sel].(*types.Func)
						if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" ||
							!strings.HasPrefix(fn.Name(), "Add") && !strings.HasPrefix(fn.Name(), "Store") {
							break
						}
						if fn.Type().(*types.Signature).Recv() != nil {
							write(sel.X) // v.f.Add(1)
						} else if addr, ok := n.Args[0].(*ast.UnaryExpr); ok && addr.Op == token.AND {
							write(addr.X) // atomic.AddInt64(&v.f, 1)
						}
					}
				}
				return true
			})
		}
	}

	uses := map[types.Object]int{}  // uses outside the object's own declaration
	reads := map[types.Object]int{} // the uses of a field that are not writes
	for id, obj := range p.info.Uses {
		obj = origin(obj)
		if d := decls[obj]; recv[id] || d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
			continue
		}
		uses[obj]++
		if !written[id] {
			reads[obj]++
		}
	}

	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	for _, tv := range p.info.Types {
		if tv.Type == nil || seen[tv.Type] {
			continue
		}
		seen[tv.Type] = true
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			hash(m.Key())
		}
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	implements := map[types.Object]bool{} // methods some interface reaches
	for _, pkg := range p.pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			// Implements is unspecified for a generic type, so a generic
			// type's methods must have uses of their own.
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || tn.Type().(*types.Named).TypeParams() != nil || types.IsInterface(tn.Type()) {
				continue
			}
			named := tn.Type()
			for _, it := range ifaces {
				for _, v := range []types.Type{named, types.NewPointer(named)} {
					if !types.Implements(v, it) {
						continue
					}
					for i := range it.NumMethods() {
						m := it.Method(i)
						obj, _, _ := types.LookupFieldOrMethod(v, true, m.Pkg(), m.Name())
						implements[origin(obj)] = true
					}
					break
				}
			}
		}
	}

	declared := map[string]bool{}
	flag := func(key, why string) {
		if exempt[key] == "" {
			dead = append(dead, key+": "+why)
		}
	}
	for importPath, pkg := range p.pkgs {
		dir := strings.TrimPrefix(importPath, "smrseek/")
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := dir + "." + name
			declared[key] = true
			if obj.Exported() && uses[obj] == 0 {
				flag(key, "top-level name with no use")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := range named.NumMethods() {
				m := named.Method(i)
				declared[key+"."+m.Name()] = true
				if m.Exported() && uses[m] == 0 && !implements[m] {
					flag(key+"."+m.Name(), "method with no use")
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					f := st.Field(i)
					declared[key+"."+f.Name()] = true
					if !f.Exported() && !f.Embedded() && uses[f] > 0 && reads[f] == 0 && !hashed[named] {
						flag(key+"."+f.Name(), "field that is only written")
					}
				}
			}
		}
	}
	for key := range exempt {
		if !declared[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale
}

// origin maps a method or field of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// methodExemptions are the exported methods kept without a non-test
// user, keyed "dir.Recv.Name", each with the reason no test can observe
// what it shows another way.
var methodExemptions = map[string]string{
	"internal/journal.Log.SetFailer": "the fault seam through which internal/core's crash tests " +
		"fail the simulator's journal appends; an export_test.go cannot serve another package",
	"internal/lru.Cache.Len": "the only count of the LRU's entries, which internal/core's " +
		"selective-cache tests match against the bucket index and a reference model; " +
		"an export_test.go cannot serve another package",
	"internal/server.framePoolT.Stats": "the frame pool's get/put balance, which " +
		"TestMalformedFramesAndPoolBalance checks; a buffer a path fails to return is " +
		"garbage that no response, counter or allocation pin shows",
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
