// Command deadcode reports every function and method that no non-test code
// references, and every method of the modules' own interfaces that no
// non-test code calls, across the root module and the bench/ module together.
//
// It type-checks each package's non-test files from source (standard-library
// imports come from the compiler's export data via `go list -export`) and
// counts as a reference any use of the function outside its own body. A
// method is also live when its type implements an interface that has it and
// that method of the interface is called: an interface written anywhere in
// the modules' code (named, or anonymous as in a type assertion) keeps it
// alive only if non-test code calls the interface's method, while any named
// interface of an imported package, and error, always does. Identical
// interfaces count as one, so a method called through one anonymous
// interface literal is called through every literal that spells the same
// method set. main, init and the names in allowlist are never reported;
// an allowlisted interface method counts as called.
//
// Usage (from the repository root; exit status 1 when anything is reported):
//
//	go run ./tools/deadcode
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// allowlist names code kept although no non-test code calls it. An entry
// matches a function key (see funcKey) exactly, or every key under it when
// it ends in ".*".
var allowlist = []struct{ key, reason string }{
	{"dsmtx.*", "package dsmtx is the public programming API"},
	{"dsmtx/internal/core.Ctx.*", "every Ctx method is public programming API"},
	{"dsmtx/internal/core.SeqCtx.*", "every SeqCtx method is public programming API"},
	{"dsmtx/internal/workloads.gzProg.decompressAll", "test oracle: gzip output decompresses to the input"},
	{"dsmtx/internal/workloads.bzProg.decompressAll", "test oracle: bzip2 output decompresses to the input"},
	{"dsmtx/internal/workloads.lzCompress", "test oracle: the reference LZ77 the kernel is pinned against"},
	{"dsmtx/internal/workloads.InputCached", "test oracle: observes the input cache's lifetime rule"},
	{"dsmtx/internal/platform/platformtest.*", "helper package imported only by tests"},
	{"dsmtx/internal/cli/clitest.*", "helper package imported only by tests"},
	{"dsmtx/bench.plan.jobs", "bench/ changes only with the benchmark it defines; its plan tests call it"},
}

// listed is the subset of `go list -json` output deadcode reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

func main() {
	dead, err := run([]string{".", "bench"})
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	for _, d := range dead {
		fmt.Println(d)
	}
	if len(dead) > 0 {
		fmt.Fprintf(os.Stderr, "deadcode: %d function(s) or interface method(s) used by no non-test code\n", len(dead))
		os.Exit(1)
	}
}

// run type-checks the non-test packages of every module in dirs and returns
// one line per unreferenced function and per uncalled interface method.
func run(dirs []string) ([]string, error) {
	var (
		exports = map[string]string{} // standard-library path -> export data
		order   []listed              // module packages, dependencies first
		seen    = map[string]bool{}   // module packages already in order
		checked = map[string]*types.Package{}
	)
	for _, dir := range dirs {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			switch {
			case p.Standard:
				exports[p.ImportPath] = p.Export
			case !seen[p.ImportPath]:
				seen[p.ImportPath] = true
				order = append(order, p)
			}
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}

	var (
		decls     = map[*types.Func]*ast.FuncDecl{}
		uses      = map[*types.Func]bool{}
		ifaces    = map[*types.Interface]bool{}
		instances = map[*types.Named][]*types.Named{} // generic type -> its instantiations
	)
	for _, p := range order {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:     map[ast.Expr]types.TypeAndValue{},
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
						decls[fn] = fd
					}
				}
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
		for _, inst := range info.Instances {
			if n, ok := inst.Type.(*types.Named); ok {
				instances[n.Origin()] = append(instances[n.Origin()], n)
			}
		}
		// Dependencies are checked first, so every callee's decl is known.
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fd := decls[fn]; fd != nil && id.Pos() >= fd.Pos() && id.Pos() < fd.End() {
				continue // a call to itself
			}
			uses[fn] = true
		}
	}
	for _, it := range importedInterfaces(checked) {
		ifaces[it] = true
	}
	ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	calls := newCallSet(ifaces, uses, checked)

	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	type finding struct {
		fn   *types.Func
		verb string
	}
	var found []finding
	for fn, fd := range decls {
		if !uses[fn] && !allowed(funcKey(fn)) && fd.Name.Name != "_" && !entryPoint(fn) && !satisfies(fn, ifaces, calls, instances) {
			found = append(found, finding{fn, "referenced"})
		}
	}
	for _, m := range calls.uncalled() {
		found = append(found, finding{m, "called"})
	}
	// Files enter the file set in package order, so positions sort by
	// package, then file, then line.
	sort.Slice(found, func(i, j int) bool { return found[i].fn.Pos() < found[j].fn.Pos() })
	var dead []string
	for _, f := range found {
		pos := fset.Position(f.fn.Pos())
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
		dead = append(dead, fmt.Sprintf("%s: %s is %s by no non-test code", pos, funcKey(f.fn), f.verb))
	}
	return dead, nil
}

// callSet records which methods of the modules' own interfaces non-test code
// calls. Identical interfaces count as one: a method is called through each
// of them when it is called through any.
type callSet struct {
	module map[*types.Package]bool               // the modules' packages
	reps   []*types.Interface                    // one interface per set of identical ones
	rep    map[*types.Interface]*types.Interface // module interface -> its entry in reps
	called map[ifaceMethod]bool                  // methods called, keyed by rep
	own    map[*types.Func]*types.Interface      // explicit module method -> its interface
}

type ifaceMethod struct {
	rep  *types.Interface
	name string
}

// newCallSet groups every interface in ifaces that has a method declared in
// one of the checked packages, and marks the methods that uses (or the
// allowlist) calls.
func newCallSet(ifaces map[*types.Interface]bool, uses map[*types.Func]bool, checked map[string]*types.Package) *callSet {
	c := &callSet{
		module: map[*types.Package]bool{},
		rep:    map[*types.Interface]*types.Interface{},
		called: map[ifaceMethod]bool{},
		own:    map[*types.Func]*types.Interface{},
	}
	for _, p := range checked {
		c.module[p] = true
	}
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if c.module[it.Method(i).Pkg()] {
				c.add(it, uses)
				break
			}
		}
	}
	return c
}

// add files it under the first identical interface in reps, or as a new
// one, and marks its called methods.
func (c *callSet) add(it *types.Interface, uses map[*types.Func]bool) {
	rep := it
	for _, r := range c.reps {
		if types.Identical(r, it) {
			rep = r
			break
		}
	}
	if rep == it {
		c.reps = append(c.reps, it)
	}
	c.rep[it] = rep
	for i := 0; i < it.NumMethods(); i++ {
		if m := it.Method(i).Origin(); uses[m] || allowed(funcKey(m)) {
			c.called[ifaceMethod{rep, m.Name()}] = true
		}
	}
	for i := 0; i < it.NumExplicitMethods(); i++ {
		if m := it.ExplicitMethod(i).Origin(); c.module[m.Pkg()] {
			c.own[m] = it
		}
	}
}

// calls reports whether m, a method of interface it, is called: always for
// a method declared outside the modules (library code may call it), else
// when non-test code calls it through it or an identical interface.
func (c *callSet) calls(it *types.Interface, m *types.Func) bool {
	return !c.module[m.Pkg()] || c.called[ifaceMethod{c.rep[it], m.Name()}]
}

// uncalled returns every method the modules' interfaces declare that no
// non-test code calls.
func (c *callSet) uncalled() []*types.Func {
	var out []*types.Func
	for m, it := range c.own {
		if !c.calls(it, m) {
			out = append(out, m)
		}
	}
	return out
}

// goList lists the non-test packages of the module in dir with all their
// dependencies, dependencies first, building export data for the standard
// library ones.
func goList(dir string) ([]listed, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// importedInterfaces returns every named interface declared by a package
// the module packages import, directly or not.
func importedInterfaces(checked map[string]*types.Package) []*types.Interface {
	var out []*types.Interface
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		if checked[p.Path()] != p {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						out = append(out, it)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	return out
}

// satisfies reports whether fn is a method that its receiver type provides
// to some interface in ifaces whose method of that name is called. A generic
// type provides it when one of its instantiations does.
func satisfies(fn *types.Func, ifaces map[*types.Interface]bool, calls *callSet, instances map[*types.Named][]*types.Named) bool {
	named := recvType(fn)
	if named == nil {
		return false
	}
	candidates := []*types.Named{named}
	if named.TypeParams().Len() > 0 {
		candidates = instances[named.Origin()]
	}
	for it := range ifaces {
		if m := method(it, fn.Name()); m == nil || !calls.calls(it, m) {
			continue
		}
		for _, t := range candidates {
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
	}
	return false
}

// method returns the method of it called name, or nil.
func method(it *types.Interface, name string) *types.Func {
	for i := 0; i < it.NumMethods(); i++ {
		if m := it.Method(i); m.Name() == name {
			return m.Origin()
		}
	}
	return nil
}

// recvType returns the named type fn is a method of, or nil for a function
// or a method of an anonymous interface.
func recvType(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// entryPoint reports whether the runtime calls fn: main in a main package,
// and init.
func entryPoint(fn *types.Func) bool {
	return recvType(fn) == nil && (fn.Name() == "init" || fn.Name() == "main" && fn.Pkg().Name() == "main")
}

// funcKey names fn as "pkgpath.Name", "pkgpath.Recv.Name", or, for a
// method of an anonymous interface, "pkgpath.interface.Name".
func funcKey(fn *types.Func) string {
	if named := recvType(fn); named != nil {
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return fn.Pkg().Path() + ".interface." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// allowed reports whether an allowlist entry matches key.
func allowed(key string) bool {
	for _, a := range allowlist {
		if key == a.key || strings.HasSuffix(a.key, ".*") && strings.HasPrefix(key, strings.TrimSuffix(a.key, "*")) {
			return true
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
