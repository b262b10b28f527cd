// Package lint is a stdlib-only static-analysis framework plus the suite
// of analyzers that keep this repo's architectural invariants mechanical:
// every rule here was established by fixing a real bug in an earlier PR
// (see docs/ARCHITECTURE.md §13 for the analyzer→bug table), and
// cmd/drams-lint fails CI when one regresses.
//
// The framework deliberately avoids golang.org/x/tools: package discovery
// is driven by `go list -json`, files are parsed with go/parser, and
// packages are type-checked in dependency order with go/types behind a
// source-backed importer for module packages (out-of-module dependencies —
// the stdlib — resolve through compiled gc export data from
// `go list -export`). Type-checked module packages are cached per import
// path so each package is checked at most twice: once clean (the variant
// other packages import) and once augmented with its in-package _test.go
// files (the variant analyzers inspect).
package lint

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
	"slices"
	"sort"
	"strings"
)

// Package is the subset of a `go list -json` record the framework needs.
type Package struct {
	ImportPath   string
	Name         string
	Dir          string
	Standard     bool
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Module       *ModuleInfo
	Error        *PackageError
}

// ModuleInfo identifies the module a package belongs to.
type ModuleInfo struct {
	Path string
	Dir  string
	Main bool
}

// PackageError is a `go list` load error attached to a package.
type PackageError struct {
	Err string
}

// Graph is the import graph handed to every analyzer pass: all packages
// `go list` reported (the module's own packages and their external
// dependency closure), keyed by import path.
type Graph struct {
	// Module is the path of the module under analysis (e.g. "drams").
	Module string
	// Dir is the module root directory; finding paths are rendered
	// relative to it.
	Dir string
	// Packages maps import path → metadata for every known package.
	Packages map[string]*Package
}

// Rel returns the module-relative package path ("" for the module root,
// "internal/obs" for drams/internal/obs) and whether the import path lies
// inside the module under analysis. Analyzer configuration uses these
// relative paths so fixtures under any module name exercise the same
// rules.
func (g *Graph) Rel(importPath string) (string, bool) {
	if importPath == g.Module {
		return "", true
	}
	if rest, ok := strings.CutPrefix(importPath, g.Module+"/"); ok {
		return rest, true
	}
	return "", false
}

// relFile renders a file name relative to the module root, as findings
// and directives are keyed.
func (g *Graph) relFile(name string) string {
	if rel, err := filepath.Rel(g.Dir, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}

// IsStdlib reports whether the import path is a standard-library package.
func (g *Graph) IsStdlib(importPath string) bool {
	if importPath == "unsafe" {
		return true
	}
	p, ok := g.Packages[importPath]
	return ok && p.Standard
}

// Unit is one analyzable package variant: the package's non-test files
// plus its in-package _test.go files type-checked together, or (XTest) an
// external test package checked on its own.
type Unit struct {
	Pkg   *Package
	XTest bool
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	testFiles map[*ast.File]bool
}

// Program is a loaded, type-checked module ready for analysis.
type Program struct {
	Fset  *token.FileSet
	Graph *Graph
	Units []*Unit

	// whole is set when the load covers every package of the module
	// (`./...` from the module root): only then do ModuleAnalyzers run.
	whole bool

	loader *loader
}

// LookupObject resolves an exported object in a module package by its
// module-relative path (e.g. "internal/transport", "Endpoint"). Nil when
// the package is not part of the module or lacks the name. Analyzers use
// it to reach canonical types (interfaces, sentinels) declared outside the
// package under analysis.
func (p *Program) LookupObject(relPath, name string) types.Object {
	full := p.Graph.Module
	if relPath != "" {
		full += "/" + relPath
	}
	if _, ok := p.Graph.Packages[full]; !ok {
		return nil
	}
	bp, err := p.loader.cleanVariant(full)
	if err != nil || bp == nil {
		return nil
	}
	return bp.types.Scope().Lookup(name)
}

// builtPkg is a fully checked clean (non-test) package variant.
type builtPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader drives discovery and type-checking; it implements types.Importer.
type loader struct {
	dir   string
	fset  *token.FileSet
	graph *Graph
	gc    types.Importer

	clean    map[string]*builtPkg // import-facing variants, by path
	building map[string]bool      // cycle guard
}

// Load discovers the packages matched by patterns (run through `go list`
// in dir), type-checks them in dependency order, and returns the program.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fset := token.NewFileSet()

	mod, err := goListModule(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := goList(dir, append([]string{"-json"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	graph := &Graph{Module: mod.Path, Dir: mod.Dir, Packages: map[string]*Package{}}
	var modulePkgs []*Package
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, fmt.Errorf("lint: load %s: %s", p.ImportPath, p.Error.Err)
		}
		graph.Packages[p.ImportPath] = p
		modulePkgs = append(modulePkgs, p)
	}

	// Resolve the external (stdlib) dependency closure so the gc importer
	// can find export data for every transitively referenced package.
	ext := map[string]bool{}
	for _, p := range modulePkgs {
		for _, imps := range [][]string{p.Imports, p.TestImports, p.XTestImports} {
			for _, ip := range imps {
				if ip == "C" || ip == "unsafe" {
					continue
				}
				if _, inMod := graph.Rel(ip); !inMod {
					ext[ip] = true
				}
			}
		}
	}
	if len(ext) > 0 {
		roots := make([]string, 0, len(ext))
		for ip := range ext {
			roots = append(roots, ip)
		}
		sort.Strings(roots)
		deps, err := goList(dir, append([]string{"-export", "-json", "-deps"}, roots...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range deps {
			if _, dup := graph.Packages[p.ImportPath]; !dup {
				graph.Packages[p.ImportPath] = p
			}
		}
	}

	l := &loader{
		dir:      dir,
		fset:     fset,
		graph:    graph,
		clean:    map[string]*builtPkg{},
		building: map[string]bool{},
	}
	l.gc = importer.ForCompiler(fset, "gc", l.exportLookup)

	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	whole := abs == filepath.Clean(mod.Dir) && slices.Contains(patterns, "./...")
	prog := &Program{Fset: fset, Graph: graph, whole: whole, loader: l}
	for _, p := range topoSort(graph, modulePkgs) {
		units, err := l.checkPackage(p)
		if err != nil {
			return nil, err
		}
		prog.Units = append(prog.Units, units...)
	}
	return prog, nil
}

// exportLookup feeds the gc importer compiled export data recorded by
// `go list -export` for out-of-module packages.
func (l *loader) exportLookup(path string) (io.ReadCloser, error) {
	p, ok := l.graph.Packages[path]
	if !ok || p.Export == "" {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(p.Export)
}

// Import resolves an import during type checking: module packages come
// from the source-backed clean cache (built on demand in dependency
// order), everything else from gc export data.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, inMod := l.graph.Rel(path); inMod {
		bp, err := l.cleanVariant(path)
		if err != nil {
			return nil, err
		}
		return bp.types, nil
	}
	return l.gc.Import(path)
}

// cleanVariant type-checks (once) the non-test files of a module package.
func (l *loader) cleanVariant(path string) (*builtPkg, error) {
	if bp, ok := l.clean[path]; ok {
		return bp, nil
	}
	p, ok := l.graph.Packages[path]
	if !ok {
		return nil, fmt.Errorf("lint: unknown module package %q", path)
	}
	if l.building[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.building[path] = true
	defer delete(l.building, path)

	files, err := l.parseFiles(p, p.GoFiles)
	if err != nil {
		return nil, err
	}
	tp, info, err := l.typeCheck(path, files)
	if err != nil {
		return nil, err
	}
	bp := &builtPkg{files: files, types: tp, info: info}
	l.clean[path] = bp
	return bp, nil
}

// checkPackage builds the analyzable unit(s) for one module package: the
// (test-augmented, when _test.go files exist) in-package variant and, when
// present, the external test package.
func (l *loader) checkPackage(p *Package) ([]*Unit, error) {
	var units []*Unit
	testFiles := map[*ast.File]bool{}

	if len(p.TestGoFiles) == 0 {
		bp, err := l.cleanVariant(p.ImportPath)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{Pkg: p, Files: bp.files, Types: bp.types, Info: bp.info, testFiles: testFiles})
	} else {
		files, err := l.parseFiles(p, p.GoFiles)
		if err != nil {
			return nil, err
		}
		tfs, err := l.parseFiles(p, p.TestGoFiles)
		if err != nil {
			return nil, err
		}
		for _, f := range tfs {
			testFiles[f] = true
		}
		files = append(files, tfs...)
		tp, info, err := l.typeCheck(p.ImportPath, files)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{Pkg: p, Files: files, Types: tp, Info: info, testFiles: testFiles})
	}

	if len(p.XTestGoFiles) > 0 {
		xfs, err := l.parseFiles(p, p.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		tp, info, err := l.typeCheck(p.ImportPath+"_test", xfs)
		if err != nil {
			return nil, err
		}
		xTestFiles := map[*ast.File]bool{}
		for _, f := range xfs {
			xTestFiles[f] = true
		}
		units = append(units, &Unit{Pkg: p, XTest: true, Files: xfs, Types: tp, Info: info, testFiles: xTestFiles})
	}
	return units, nil
}

func (l *loader) parseFiles(p *Package, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *loader) typeCheck(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tp, err := conf.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("lint: type-check %s: %w", path, errs[0])
	}
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	return tp, info, nil
}

// topoSort orders module packages so dependencies precede dependents;
// ordering by import depth keeps the on-demand clean builds shallow.
func topoSort(g *Graph, pkgs []*Package) []*Package {
	inMod := map[string]*Package{}
	for _, p := range pkgs {
		inMod[p.ImportPath] = p
	}
	var order []*Package
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p.ImportPath] != 0 {
			return
		}
		state[p.ImportPath] = 1
		for _, ip := range p.Imports {
			if dep, ok := inMod[ip]; ok {
				visit(dep)
			}
		}
		state[p.ImportPath] = 2
		order = append(order, p)
	}
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })
	for _, p := range sorted {
		visit(p)
	}
	return order
}

type moduleID struct {
	Path string
	Dir  string
}

func goListModule(dir string) (*moduleID, error) {
	out, err := runGo(dir, "list", "-m", "-json")
	if err != nil {
		return nil, err
	}
	var m moduleID
	if err := json.NewDecoder(bytes.NewReader(out)).Decode(&m); err != nil {
		return nil, fmt.Errorf("lint: decode module info: %w", err)
	}
	if m.Path == "" || m.Dir == "" {
		return nil, fmt.Errorf("lint: %s is not inside a module", dir)
	}
	return &m, nil
}

func goList(dir string, args ...string) ([]*Package, error) {
	out, err := runGo(dir, append([]string{"list", "-e"}, args...)...)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*Package
	for {
		var p Package
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

func runGo(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("lint: go %s: %s", strings.Join(args, " "), msg)
	}
	return out, nil
}
