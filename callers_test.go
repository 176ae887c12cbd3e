package tcb_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryFunctionHasACaller enforces DESIGN.md §18 ("What code stays"): a
// non-test function or method of this module must be reachable from a root
// through non-test code, where a function reaches every function its body
// names. The roots are what has its callers outside the call graph:
//
//   - main and init;
//   - everything in tcb.go (the public façade; its callers are users of
//     the module) and in every oracle.go (the named oracles tests compare
//     production paths against);
//   - every function a package-level declaration names;
//   - every method that satisfies an interface (see satisfiesInterface);
//   - everything in bench/ (the benchmark module, which is checked against
//     the module, not by it).
//
// Two dead functions that only call each other reach neither from a root,
// so both are flagged (TestCallersFlagDeadCycle pins that on a fixture). A
// type alias in tcb.go exports the type, not every method on it.
func TestEveryFunctionHasACaller(t *testing.T) {
	l := newLoader(t)
	l.walk(".", "tcb", func(rel string) bool { return rel == "bench" })
	l.walk("bench", "tcb/bench", nil)
	isBench := func(path string) bool { return strings.HasPrefix(path, "tcb/bench") }
	dead := l.unreachable(isBench)
	for _, path := range l.order() {
		if isBench(path) {
			continue
		}
		t.Run(path, func(t *testing.T) {
			if d := dead[path]; len(d) > 0 {
				t.Errorf("%d functions unreachable from the roots (delete them, or move an oracle into oracle.go):\n\t%s",
					len(d), strings.Join(d, "\n\t"))
			}
		})
	}
}

// TestCallersFlagDeadCycle runs the check on testdata/deadcycle, a program
// with two dead functions that only call each other: each has a caller, so
// a one-level "has a caller" rule passes both, but neither is reachable.
func TestCallersFlagDeadCycle(t *testing.T) {
	l := newLoader(t)
	l.walk(filepath.Join("testdata", "deadcycle"), "deadcycle", nil)
	dead := l.unreachable(func(string) bool { return false })
	var got []string
	for _, d := range dead["deadcycle"] {
		got = append(got, d[strings.LastIndex(d, " ")+1:])
	}
	if want := []string{"ping", "pong"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("unreachable = %v, want %v", dead, want)
	}
}

// loader parses and type-checks the non-test files of every package of
// both modules, sharing one types.Info so uses can be looked up across
// packages. The standard library is type-checked from source.
type loader struct {
	t     *testing.T
	fset  *token.FileSet
	ctxt  build.Context
	dirs  map[string]string // import path → directory
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info

	ifaces []*types.Interface // non-empty interfaces in reach, for satisfiesInterface
}

func newLoader(t *testing.T) *loader {
	fset := token.NewFileSet()
	// The source importer reads build.Default; cgo off keeps it from
	// invoking the C toolchain for net and os/user.
	build.Default.CgoEnabled = false
	return &loader{
		t:     t,
		fset:  fset,
		ctxt:  build.Default,
		dirs:  map[string]string{},
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
}

// walk records every directory under root that holds Go files as the
// package module+"/"+rel, skipping directories skip names (relative to
// root), testdata and hidden directories.
func (l *loader) walk(root, module string, skip func(rel string) bool) {
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		name := d.Name()
		if rel != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			(skip != nil && skip(filepath.ToSlash(rel)))) {
			return filepath.SkipDir
		}
		if gofiles, _ := filepath.Glob(filepath.Join(p, "*.go")); len(gofiles) == 0 {
			return nil
		}
		path := module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		l.dirs[path] = p
		return nil
	})
	if err != nil {
		l.t.Fatal(err)
	}
}

func (l *loader) order() []string {
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Import implements types.Importer over the two modules and the stdlib.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		return l.check(path), nil
	}
	return l.std.Import(path)
}

// check type-checks the non-test files of one package (once).
func (l *loader) check(path string) *types.Package {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg
	}
	dir := l.dirs[path]
	ents, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := l.ctxt.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		files = append(files, f)
	}
	l.files[path] = files
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		l.t.Fatalf("type-check %s: %v", path, err)
	}
	l.pkgs[path] = pkg
	return pkg
}

// unreachable type-checks every package and returns, per package that is
// not a root package, the functions and methods no root reaches
// ("file:line: name", in source order).
func (l *loader) unreachable(rootPkg func(path string) bool) map[string][]string {
	for _, path := range l.order() {
		l.check(path)
	}
	type decl struct {
		fn   *types.Func
		path string
		desc string
	}
	var roots []*types.Func
	var decls []decl
	edges := map[*types.Func][]*types.Func{}
	for _, path := range l.order() {
		for _, f := range l.files[path] {
			base := filepath.Base(l.fset.Position(f.Pos()).Filename)
			exempt := rootPkg(path) || base == "oracle.go" || (path == "tcb" && base == "tcb.go")
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" {
					roots = append(roots, l.named(d)...)
					continue
				}
				fn := l.info.Defs[fd.Name].(*types.Func)
				edges[fn] = l.named(fd)
				if exempt || fd.Name.Name == "init" || (fd.Recv == nil && fd.Name.Name == "main") || l.satisfiesInterface(fn) {
					roots = append(roots, fn)
					continue
				}
				name := fd.Name.Name
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					name = types.TypeString(recv.Type(), func(*types.Package) string { return "" }) + "." + name
				}
				decls = append(decls, decl{fn, path, fmt.Sprintf("%s: %s", l.fset.Position(fd.Name.Pos()), name)})
			}
		}
	}
	reached := map[*types.Func]bool{}
	for len(roots) > 0 {
		fn := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if !reached[fn] {
			reached[fn] = true
			roots = append(roots, edges[fn]...)
		}
	}
	dead := map[string][]string{}
	for _, d := range decls {
		if !reached[d.fn] {
			dead[d.path] = append(dead[d.path], d.desc)
		}
	}
	return dead
}

// named returns every function node names: a function's outgoing edges, or
// the roots a package-level declaration adds.
func (l *loader) named(node ast.Node) []*types.Func {
	var out []*types.Func
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := l.info.Uses[id].(*types.Func); ok {
				out = append(out, fn.Origin())
			}
		}
		return true
	})
	return out
}

// dynamicMethods are called through interfaces the standard library checks
// for at run time (fmt, encoding/json, errors), which no signature in the
// module names.
var dynamicMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// satisfiesInterface reports whether fn is a method through which its type
// (or a pointer to it) implements an interface some non-test code of either
// module mentions, directly or in the signature of a function it uses.
func (l *loader) satisfiesInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if dynamicMethods[fn.Name()] {
		return true
	}
	if l.ifaces == nil {
		l.collectInterfaces()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range l.ifaces {
		if !hasMethod(it, fn.Name()) {
			continue
		}
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// collectInterfaces gathers every non-empty interface type reachable from
// the type of an expression or object in non-test code: declared
// interfaces, and those in the signatures of functions the code calls
// (http.Handler in http.Handle, heap.Interface in heap.Push, ...).
func (l *loader) collectInterfaces() {
	seen := map[types.Type]bool{}
	var visit func(types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			visit(t.Underlying())
		case *types.Interface:
			if t.NumMethods() > 0 {
				l.ifaces = append(l.ifaces, t)
			}
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					visit(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				visit(t.Field(i).Type())
			}
		}
	}
	for _, tv := range l.info.Types {
		visit(tv.Type)
	}
	for _, obj := range l.info.Defs {
		if obj != nil {
			visit(obj.Type())
		}
	}
	for _, obj := range l.info.Uses {
		visit(obj.Type())
	}
}
