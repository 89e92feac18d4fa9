// Command deadcode reports every function and method that no non-test code
// references, across the root module and the bench/ module together.
//
// It type-checks each package's non-test files from source (standard-library
// imports come from the compiler's export data via `go list -export`) and
// counts as a reference any use of the function outside its own body. A
// method is also live when its type implements an interface that has it:
// an interface written anywhere in the modules' code (named, or anonymous as
// in a type assertion), any named interface of an imported package, or
// error. main, init and the names in allowlist are never reported.
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
		fmt.Fprintf(os.Stderr, "deadcode: %d function(s) referenced by no non-test code\n", len(dead))
		os.Exit(1)
	}
}

// run type-checks the non-test packages of every module in dirs and returns
// one line per unreferenced function.
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
		ifaces    []*types.Interface
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
				ifaces = append(ifaces, it)
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
	ifaces = append(ifaces, importedInterfaces(checked)...)
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var found []*types.Func
	for fn, fd := range decls {
		if !uses[fn] && !allowed(funcKey(fn)) && fd.Name.Name != "_" && !entryPoint(fn) && !satisfies(fn, ifaces, instances) {
			found = append(found, fn)
		}
	}
	// Files enter the file set in package order, so positions sort by
	// package, then file, then line.
	sort.Slice(found, func(i, j int) bool { return found[i].Pos() < found[j].Pos() })
	var dead []string
	for _, fn := range found {
		pos := fset.Position(fn.Pos())
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
		dead = append(dead, fmt.Sprintf("%s: %s is referenced by no non-test code", pos, funcKey(fn)))
	}
	return dead, nil
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
// to some interface in ifaces. A generic type provides it when one of its
// instantiations does.
func satisfies(fn *types.Func, ifaces []*types.Interface, instances map[*types.Named][]*types.Named) bool {
	named := recvType(fn)
	if named == nil {
		return false
	}
	candidates := []*types.Named{named}
	if named.TypeParams().Len() > 0 {
		candidates = instances[named.Origin()]
	}
	for _, it := range ifaces {
		if !hasMethod(it, fn.Name()) {
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

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// recvType returns the type fn is a method of, or nil for a function.
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

// funcKey names fn as "pkgpath.Name" or "pkgpath.Recv.Name".
func funcKey(fn *types.Func) string {
	if named := recvType(fn); named != nil {
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
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
