package netpowerprop

// The reachability guard: every function and method in the program must be
// reachable from some main or init of the root or bench/ module, so no
// production code exists only for its tests.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// testOnlyKeep names the production declarations that only tests reach, each
// with the reason it stays. An entry is a function, or a type standing for
// all of its methods. Its callees count as reachable.
var testOnlyKeep = map[string]string{
	"netpowerprop/internal/parking.SimulatePackets":    "the packet-level ground truth of TestFluidMatchesPackets; it keeps internal/sim and the pinned BenchmarkSchedule alive",
	"netpowerprop/internal/parking.ArrivalsFromDemand": "turns the fluid demand into SimulatePackets' arrivals in TestFluidMatchesPackets",
	"netpowerprop/internal/obs.MemSink":                "the log sink the cmd/serve, jobs and obs tests share",
	"netpowerprop/internal/engine.NewRowPlan":          "lets the jobs tests substitute their scripted row executor",
}

// stdlibMethods are method names the standard library calls through its own
// interfaces (fmt, errors, encoding/json, io, net/http, sort, container/heap,
// flag, context). A method with one of these names is live when its
// receiver type is.
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true, "Timeout": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "WriteString": true,
	"ServeHTTP": true, "Header": true, "WriteHeader": true, "Flush": true, "RoundTrip": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true, "Set": true,
	"Deadline": true, "Done": true, "Err": true, "Value": true,
}

func TestNoTestOnlyProductionCode(t *testing.T) {
	p, err := loadProgram(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	live := p.reach(nil)
	keep := make([]string, 0, len(testOnlyKeep))
	for name := range testOnlyKeep {
		keep = append(keep, name)
	}
	sort.Strings(keep)
	for _, name := range keep {
		obj, ok := p.byName[name]
		switch {
		case !ok:
			t.Errorf("keep-list entry %s no longer exists; drop it", name)
		case live[obj]:
			t.Errorf("keep-list entry %s is reachable from a main; drop it", name)
		}
	}
	live = p.reach(keep)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, fn := range p.funcs {
		if !live[fn] {
			pos := p.fset.Position(fn.Pos())
			if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
				pos.Filename = rel
			}
			dead = append(dead, fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, qualified(fn)))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("only tests reach %s", d)
	}
}

// listedPkg is the part of `go list -json` output the guard reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Standard   bool
}

// program is the type-checked non-test source of every package the listed
// modules build, standard library excluded.
type program struct {
	fset    *token.FileSet
	info    *types.Info
	decls   map[types.Object]ast.Node // func, type and package-level var and const declarations
	funcs   []*types.Func             // every declared function and method
	byName  map[string]types.Object   // "pkgpath.Name" of package-level funcs and types
	methods map[*types.TypeName][]*types.Func
	roots   []types.Object // every main, init and package-level var of a package a main imports
}

// loadProgram lists each module directory's packages with their
// dependencies and type-checks them from source.
func loadProgram(moduleDirs ...string) (*program, error) {
	p := &program{
		fset: token.NewFileSet(),
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
		decls:   map[types.Object]ast.Node{},
		byName:  map[string]types.Object{},
		methods: map[*types.TypeName][]*types.Func{},
	}
	// The source importer reads build.Default. Type checking needs no cgo
	// output, and the pure-Go variants of the standard library's cgo
	// packages carry the same API, so load without a C toolchain.
	saved := build.Default
	build.Default.CgoEnabled = false
	defer func() { build.Default = saved }()
	std := importer.ForCompiler(p.fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return std.Import(path)
	})
	var pkgs []listedPkg
	files := map[string][]*ast.File{}
	for _, dir := range moduleDirs {
		listed, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			if lp.Standard || checked[lp.ImportPath] != nil {
				continue
			}
			var fs []*ast.File
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(p.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				fs = append(fs, f)
			}
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(lp.ImportPath, p.fset, fs, p.info)
			if err != nil {
				return nil, err
			}
			checked[lp.ImportPath] = pkg
			files[lp.ImportPath] = fs
			pkgs = append(pkgs, lp)
		}
	}
	for _, lp := range pkgs {
		for _, f := range files[lp.ImportPath] {
			p.collect(f)
		}
	}
	p.collectRoots(pkgs, files)
	return p, nil
}

// collect records the declarations of one file.
func (p *program) collect(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			fn := p.info.Defs[d.Name].(*types.Func)
			p.decls[fn] = d
			p.funcs = append(p.funcs, fn)
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil {
				if d.Name.Name != "init" {
					p.byName[qualified(fn)] = fn
				}
				continue
			}
			if tn := namedType(recv.Type()); tn != nil {
				p.methods[tn] = append(p.methods[tn], fn)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					obj := p.info.Defs[s.Name]
					p.decls[obj] = s
					if obj.Parent() == obj.Pkg().Scope() {
						p.byName[obj.Pkg().Path()+"."+obj.Name()] = obj
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if obj := p.info.Defs[n]; obj != nil {
							p.decls[obj] = s
						}
					}
				}
			}
		}
	}
}

// collectRoots gathers what runs without being called: each main, every
// init and every package-level var initializer of a package a main imports.
func (p *program) collectRoots(pkgs []listedPkg, files map[string][]*ast.File) {
	byPath := map[string]listedPkg{}
	var queue []string
	for _, lp := range pkgs {
		byPath[lp.ImportPath] = lp
		if lp.Name == "main" {
			queue = append(queue, lp.ImportPath)
		}
	}
	linked := map[string]bool{}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		lp, ok := byPath[path]
		if !ok || linked[path] {
			continue
		}
		linked[path] = true
		queue = append(queue, lp.Imports...)
	}
	for _, lp := range pkgs {
		if !linked[lp.ImportPath] {
			continue
		}
		for _, f := range files[lp.ImportPath] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || lp.Name == "main" && d.Name.Name == "main") {
						p.roots = append(p.roots, p.info.Defs[d.Name])
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, s := range d.Specs {
						for _, n := range s.(*ast.ValueSpec).Names {
							if obj := p.info.Defs[n]; obj != nil {
								p.roots = append(p.roots, obj)
							}
						}
					}
				}
			}
		}
	}
}

// reach returns every declaration reachable from the roots plus the named
// extra entries (a type entry brings all of its methods).
func (p *program) reach(extra []string) map[types.Object]bool {
	live := map[types.Object]bool{}
	viaInterface := map[string]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if _, declared := p.decls[obj]; declared && !live[obj] {
			live[obj] = true
			work = append(work, obj)
		}
	}
	for _, obj := range p.roots {
		mark(obj)
	}
	for _, name := range extra {
		obj := p.byName[name]
		mark(obj)
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range p.methods[tn] {
				mark(m)
			}
		}
	}
	for {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			ast.Inspect(p.decls[obj], func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				used := p.info.Uses[id]
				switch u := used.(type) {
				case *types.Func:
					if recv := u.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						viaInterface[u.Name()] = true
					}
					used = u.Origin()
				case *types.Var:
					used = u.Origin()
				case *types.Const:
					// An iota const's spec may not name its type.
					if tn := namedType(u.Type()); tn != nil {
						mark(tn)
					}
				}
				if used != nil {
					mark(used)
				}
				return true
			})
		}
		// A method a live function does not select is still live when its
		// receiver type is live and its name is called through an interface.
		for tn, ms := range p.methods {
			if !live[tn] {
				continue
			}
			for _, m := range ms {
				if viaInterface[m.Name()] || stdlibMethods[m.Name()] {
					mark(m)
				}
			}
		}
		if len(work) == 0 {
			return live
		}
	}
}

// goList runs `go list -deps -json ./...` in dir; dependencies come before
// the packages that import them.
func goList(dir string) ([]listedPkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp listedPkg
		if err := dec.Decode(&lp); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// namedType is the named type t is or points to (nil for any other type).
func namedType(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// qualified names a function "pkgpath.Name" or "pkgpath.Recv.Name".
func qualified(fn *types.Func) string {
	name := fn.Pkg().Path() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if tn := namedType(recv.Type()); tn != nil {
			name += tn.Name() + "."
		}
	}
	return name + fn.Name()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
