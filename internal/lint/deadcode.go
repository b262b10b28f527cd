package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
)

// DeadCode reports the non-test declarations no binary reaches. Deletions
// used to be found by reading; this finds the next ones and keeps them from
// growing back.
//
// The roots are main and init of every package main under Roots, every
// init and blank `var _ = …` of a checked package, and the root package's
// exported API (functions, types, vars, consts and exported methods). A
// blank interface assertion, `var _ I = (*T)(nil)` or `var _ I = T{}`, is
// a compile-time check, not a root: it keeps T live only if something else
// does. A blank var that calls a function, `var _ = registered()`, is. A
// declaration is live when a live one references it. A method is live when
// it is referenced, or when its receiver type is live and its name is a
// method of some interface type in the loaded program, the imported
// standard library included (String, Error, ServeHTTP need no list).
//
// Tests and examples are not roots. Example programs and packages that
// only _test.go files import (test support) are not checked. A
// `//lint:ignore deadcode <reason>` on a type also covers its methods, and
// whatever a kept declaration references is live through it.
//
// The rule needs every user of a declaration loaded, so it is a
// ModuleAnalyzer: Program.Run skips it unless the load covers the whole
// module.
type DeadCode struct {
	// Roots are the module-relative patterns whose package main's main and
	// init are entry points.
	Roots []string
}

// NewDeadCode returns the analyzer with the repo's binaries as roots.
func NewDeadCode() *DeadCode {
	return &DeadCode{Roots: []string{"cmd/...", "benchmark/..."}}
}

func (a *DeadCode) Name() string { return "deadcode" }

func (a *DeadCode) Doc() string {
	return "every non-test declaration is reachable from a binary's main or init or the root package's API"
}

// ModuleWide marks deadcode as one pass over the whole module.
func (a *DeadCode) ModuleWide() {}

// dcDecl is one top-level declaration: its object and the syntax whose
// references it keeps live.
type dcDecl struct {
	obj  types.Object
	node ast.Node
	info *types.Info
}

func (a *DeadCode) Run(p *Pass) {
	g := p.Graph
	var paths []string
	byCode, byTests := map[string]bool{}, map[string]bool{}
	for path, pkg := range g.Packages {
		if _, inMod := g.Rel(path); inMod {
			paths = append(paths, path)
			for _, ip := range pkg.Imports {
				byCode[ip] = true
			}
			for _, ip := range slices.Concat(pkg.TestImports, pkg.XTestImports) {
				byTests[ip] = true
			}
		}
	}
	sort.Strings(paths)

	// ifaceNames holds every method name an interface type declares: in the
	// universe (error), in any package the module imports, or in its code.
	ifaceNames := map[string]bool{}
	addScope := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIfaceNames(ifaceNames, tn.Type())
			}
		}
	}
	seen := map[*types.Package]bool{}
	var addPkg func(tp *types.Package)
	addPkg = func(tp *types.Package) {
		if !seen[tp] {
			seen[tp] = true
			addScope(tp.Scope())
			for _, imp := range tp.Imports() {
				addPkg(imp)
			}
		}
	}
	addScope(types.Universe)

	index := map[types.Object]*dcDecl{}
	methods := map[*types.TypeName][]*types.Func{}
	var decls, roots []*dcDecl
	for _, path := range paths {
		bp, err := p.prog.loader.cleanVariant(path)
		if err != nil {
			return
		}
		addPkg(bp.types)
		for _, tv := range bp.info.Types {
			addIfaceNames(ifaceNames, tv.Type)
		}
		rel, _ := g.Rel(path)
		isMain := g.Packages[path].Name == "main"
		if isMain && !matchAnyPath(rel, a.Roots) || !isMain && rel != "" && !byCode[path] && byTests[path] {
			continue // an example program, or test support
		}
		for _, d := range topLevelDecls(bp) {
			name := d.obj.Name()
			fn, _ := d.obj.(*types.Func)
			var recv *types.TypeName
			if fn != nil {
				recv = receiverType(fn)
			}
			if name == "_" && isAssertion(d.node, d.info) {
				continue
			}
			if name == "_" || fn != nil && recv == nil && (name == "init" || isMain && name == "main") {
				roots = append(roots, d)
				continue
			}
			if rel == "" && d.obj.Exported() {
				roots = append(roots, d)
			}
			decls = append(decls, d)
			index[d.obj] = d
			if recv != nil {
				methods[recv] = append(methods[recv], fn)
			}
		}
	}

	// grow marks what from reaches: each declaration's references, and the
	// interface-named methods of every live type.
	grow := func(live map[types.Object]bool, from []*dcDecl) {
		queue := slices.Clone(from)
		mark := func(obj types.Object) {
			if d, ok := index[obj]; ok && !live[obj] {
				live[obj] = true
				queue = append(queue, d)
			}
		}
		for _, d := range from {
			live[d.obj] = true
		}
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			ast.Inspect(d.node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					mark(origin(d.info.Uses[id]))
				}
				return true
			})
			switch obj := d.obj.(type) {
			case *types.Const:
				// A const repeated by iota references its type implicitly.
				if named, ok := obj.Type().(*types.Named); ok {
					mark(named.Obj())
				}
			case *types.TypeName:
				for _, m := range methods[obj] {
					if ifaceNames[m.Name()] {
						mark(m)
					}
				}
			}
		}
	}
	live := map[types.Object]bool{}
	grow(live, roots)

	// A kept declaration is a root of its own, and a kept type keeps all of
	// its methods; what only they reach is silent. The kept declaration
	// itself is still reported, so that its directive is used, and a
	// directive on a live declaration is flagged as unused.
	dirs, _ := p.prog.collectDirectives()
	kept := func(pos token.Pos) bool {
		at := p.Fset.Position(pos)
		return slices.ContainsFunc(dirs[g.relFile(at.Filename)], func(d *directive) bool {
			return d.names[a.Name()] && (d.line == at.Line || d.line == at.Line-1)
		})
	}
	keptLive := maps.Clone(live)
	var keptRoots []*dcDecl
	for _, d := range decls {
		if live[d.obj] || !kept(d.obj.Pos()) {
			continue
		}
		keptRoots = append(keptRoots, d)
		if tn, ok := d.obj.(*types.TypeName); ok {
			for _, m := range methods[tn] {
				keptRoots = append(keptRoots, index[m])
			}
		}
	}
	grow(keptLive, keptRoots)

	for _, d := range decls {
		if !live[d.obj] && (!keptLive[d.obj] || kept(d.obj.Pos())) {
			p.Reportf(d.obj.Pos(), "%s is unreachable from every binary's main and init and from the root package's API: delete it, move it into the _test.go file that uses it, or keep it with //lint:ignore deadcode <reason>", describe(d.obj))
		}
	}
}

// topLevelDecls lists a package's functions, methods, types, vars and
// consts, one per declared name.
func topLevelDecls(bp *builtPkg) []*dcDecl {
	var out []*dcDecl
	add := func(id *ast.Ident, node ast.Node) {
		if obj := bp.info.Defs[id]; obj != nil {
			out = append(out, &dcDecl{obj: obj, node: node, info: bp.info})
		}
	}
	for _, f := range bp.files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				add(decl.Name, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(name, spec)
						}
					}
				}
			}
		}
	}
	return out
}

// isAssertion reports whether a blank var is an interface assertion: it
// declares an interface type, and its values convert or build a value but
// call no function.
func isAssertion(node ast.Node, info *types.Info) bool {
	spec, ok := node.(*ast.ValueSpec)
	if !ok || spec.Type == nil || !types.IsInterface(info.TypeOf(spec.Type)) {
		return false
	}
	calls := false
	for _, v := range spec.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			calls = calls || ok && !info.Types[call.Fun].IsType()
			return !calls
		})
	}
	return !calls
}

// addIfaceNames records the method names of t when it is an interface.
func addIfaceNames(names map[string]bool, t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := range it.NumMethods() {
			names[it.Method(i).Name()] = true
		}
	}
}

// receiverType is the named type a method is declared on, or nil for a
// function.
func receiverType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// origin maps a use of an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// describe renders an object as `kind name`, with a method as `T.M`.
func describe(obj types.Object) string {
	switch obj := obj.(type) {
	case *types.Func:
		if recv := receiverType(obj); recv != nil {
			return "method " + recv.Name() + "." + obj.Name()
		}
		return "func " + obj.Name()
	case *types.TypeName:
		return "type " + obj.Name()
	case *types.Const:
		return "const " + obj.Name()
	}
	return "var " + obj.Name()
}
