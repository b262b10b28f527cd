package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// LockHeld enforces the PR 9 snapshot-then-serve contract: no sync lock is
// held across an operation whose latency the holder does not control — a
// transport Call/Send, a channel send, or a Write to an interface writer
// (the stalled-/metrics-scraper class: one wedged TCP client must never
// wedge a component mutex). The check is syntactic and
// block-scoped: between x.Lock()/x.RLock() and the matching unlock in the
// same statement list (a deferred unlock holds to function exit), those
// operations are flagged. Function literals are scanned as independent
// functions since they run on their own schedule.
type LockHeld struct {
	// TransportPkg is the module-relative package whose Call/Send methods
	// (and implementors of its Endpoint interface) block on the network.
	TransportPkg string
}

// NewLockHeld returns the analyzer bound to internal/transport.
func NewLockHeld() *LockHeld { return &LockHeld{TransportPkg: "internal/transport"} }

func (a *LockHeld) Name() string { return "lockheld" }

func (a *LockHeld) Doc() string {
	return "no lock held across a transport Call/Send, channel send, or interface Write (PR 9)"
}

var transportBlockingMethods = map[string]bool{"Call": true, "Send": true}

func (a *LockHeld) Run(p *Pass) {
	var endpoint *types.Interface
	if obj := p.LookupObject(a.TransportPkg, "Endpoint"); obj != nil {
		if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
			endpoint = iface
		}
	}
	s := &lockScan{pass: p, transportPath: p.Graph.Module + "/" + a.TransportPkg, endpoint: endpoint}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					s.scanStmts(fn.Body.List, nil)
				}
			case *ast.FuncLit:
				if fn.Body != nil {
					s.scanStmts(fn.Body.List, nil)
				}
			}
			return true
		})
	}
}

type lockScan struct {
	pass          *Pass
	transportPath string
	endpoint      *types.Interface
}

// scanStmts walks one statement list tracking which lock receivers are
// held, recursing into nested blocks (each inherits the current held set)
// and checking every other statement for blocking operations.
func (s *lockScan) scanStmts(stmts []ast.Stmt, inherited map[string]bool) {
	held := map[string]bool{}
	for k := range inherited {
		held[k] = true
	}
	for _, st := range stmts {
		if recv, isLock, ok := s.lockOp(st); ok {
			if isLock {
				held[recv] = true
			} else {
				delete(held, recv)
			}
			continue
		}
		if s.isDeferredUnlock(st) {
			continue // the lock stays held to function exit by design
		}
		if len(held) > 0 {
			s.checkStmt(st, held)
		}
		s.recurse(st, held)
	}
}

// lockOp matches `x.Lock()` / `x.RLock()` (isLock=true) and `x.Unlock()` /
// `x.RUnlock()` (isLock=false) expression statements where the method is
// declared in package sync.
func (s *lockScan) lockOp(st ast.Stmt) (recv string, isLock, ok bool) {
	es, isExpr := st.(*ast.ExprStmt)
	if !isExpr {
		return "", false, false
	}
	return s.lockCall(es.X)
}

func (s *lockScan) lockCall(e ast.Expr) (recv string, isLock, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	f, _ := s.pass.Info.Uses[sel.Sel].(*types.Func)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch f.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), true, true
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), false, true
	}
	return "", false, false
}

func (s *lockScan) isDeferredUnlock(st ast.Stmt) bool {
	d, ok := st.(*ast.DeferStmt)
	if !ok {
		return false
	}
	_, isLock, matched := s.lockCall(d.Call)
	return matched && !isLock
}

// recurse descends into the nested statement lists of compound statements
// so locks taken inside them are tracked block-locally.
func (s *lockScan) recurse(st ast.Stmt, held map[string]bool) {
	switch n := st.(type) {
	case *ast.BlockStmt:
		s.scanStmts(n.List, held)
	case *ast.IfStmt:
		s.scanStmts(n.Body.List, held)
		if n.Else != nil {
			s.recurse(n.Else, held)
		}
	case *ast.ForStmt:
		s.scanStmts(n.Body.List, held)
	case *ast.RangeStmt:
		s.scanStmts(n.Body.List, held)
	case *ast.SwitchStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.scanStmts(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.scanStmts(cc.Body, held)
			}
		}
	case *ast.SelectStmt:
		// A select with a default clause never blocks on its comm cases,
		// so its sends are safe under a lock (the drop-not-block fanout
		// idiom); the clause bodies still run with the lock held.
		nonBlocking := false
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				nonBlocking = true
			}
		}
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				var body []ast.Stmt
				if cc.Comm != nil && !nonBlocking {
					body = append(body, cc.Comm)
				}
				s.scanStmts(append(body, cc.Body...), held)
			}
		}
	case *ast.LabeledStmt:
		s.recurse(n.Stmt, held)
	}
}

// checkStmt flags blocking operations in the directly attached expressions
// of st: nested blocks are covered by recurse, and function literals,
// go, and defer statements run on their own schedule.
func (s *lockScan) checkStmt(st ast.Stmt, held map[string]bool) {
	ast.Inspect(st, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BlockStmt, *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			s.pass.Reportf(x.Arrow, "channel send while %s is held: a slow receiver stalls every path contending for the lock", heldNames(held))
		case *ast.CallExpr:
			s.checkCall(x, held)
		}
		return true
	})
}

func (s *lockScan) checkCall(call *ast.CallExpr, held map[string]bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection := s.pass.Info.Selections[sel]
	if selection == nil {
		return
	}
	f, ok := selection.Obj().(*types.Func)
	if !ok {
		return
	}
	name := f.Name()
	if transportBlockingMethods[name] {
		declaredInTransport := f.Pkg() != nil && f.Pkg().Path() == s.transportPath
		implementsEndpoint := s.endpoint != nil &&
			(types.Implements(selection.Recv(), s.endpoint) ||
				types.Implements(types.NewPointer(selection.Recv()), s.endpoint))
		if declaredInTransport || implementsEndpoint {
			s.pass.Reportf(call.Pos(), "transport %s while %s is held: a slow peer turns a network stall into a lock stall (snapshot state, release, then call)", name, heldNames(held))
			return
		}
	}
	if name == "Write" && types.IsInterface(selection.Recv()) {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Params().Len() == 1 {
			if slice, ok := sig.Params().At(0).Type().(*types.Slice); ok {
				if basic, ok := slice.Elem().(*types.Basic); ok && basic.Kind() == types.Byte {
					s.pass.Reportf(call.Pos(), "io.Writer Write while %s is held: a wedged scraper or client must not hold a component lock (snapshot, unlock, then serve)", heldNames(held))
				}
			}
		}
	}
}

func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for n := range held {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
