package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// wallclockCalls are the time-package entry points that read or arm the
// process wall clock. internal/dispatch, internal/serve and
// internal/cluster must not call them: deadline, pacing, breaker and
// budget logic runs on an injectable clock or a `now` parameter so tests
// can drive it deterministically, and one stray time.Now turns a
// reproducible schedule into a flaky one.
var wallclockCalls = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
	"Since": true, "Until": true,
}

// wallclockExempt lists the serve and cluster files that still call the
// wall clock directly, as package/file. It only shrinks: a file leaves
// when its timers move onto a clock, and every file not listed — new
// ones included — is held to the rule.
var wallclockExempt = map[string]bool{
	"serve/server.go": true, "serve/fleet.go": true, "serve/batcher.go": true,
	"serve/scale.go": true, "serve/faults.go": true,
	"cluster/router.go": true, "cluster/faults.go": true, "cluster/health.go": true,
}

// checkClockDiscipline enforces the injectable-clock rule in packages
// dispatch, serve and cluster: no direct time-package wall-clock calls
// outside wallclockExempt. The one legitimate site — the RealClock
// adapter itself — carries //rtmap:wallclock-ok.
func checkClockDiscipline(f *srcFile, report func(token.Pos, string, string, ...any)) {
	switch f.pkg {
	case "dispatch":
	case "serve", "cluster":
		if wallclockExempt[f.pkg+"/"+filepath.Base(f.path)] {
			return
		}
	default:
		return
	}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "time" || !wallclockCalls[sel.Sel.Name] {
			return true
		}
		if f.wallclockOK[f.fset.Position(call.Pos()).Line] {
			return true
		}
		report(call.Pos(), "wallclock",
			"time.%s in package %s: use the injectable Clock (suppress the clock adapter itself with //rtmap:wallclock-ok)",
			sel.Sel.Name, f.pkg)
		return true
	})
}

// checkLockedSends enforces the no-send-under-mutex rule in package
// serve: a channel send (or a Submit call, which sends internally) while
// an exclusive mutex is held can deadlock the server — the receiver may
// need the same lock to drain. The analysis is a statement-order scan of
// each function body tracking `x.mu.Lock()` / `x.mu.Unlock()` pairs on
// receivers whose final selector names a mutex ("mu" or a "...Mu"
// suffix). Read locks are deliberately ignored: the batcher and fleet
// send under RLock on purpose (the read side only fences close()).
// Branch bodies scan a copy of the held set; go/defer function literals
// start empty (they run on another goroutine / after the unlocks).
// Deliberate exceptions carry //rtmap:locked-send-ok.
func checkLockedSends(f *srcFile, report func(token.Pos, string, string, ...any)) {
	if f.pkg != "serve" {
		return
	}
	for _, decl := range f.ast.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		scanStmts(f, fd.Body.List, map[string]bool{}, report)
	}
}

// scanStmts walks a statement list in order, maintaining the set of
// exclusively held mutexes.
func scanStmts(f *srcFile, stmts []ast.Stmt, held map[string]bool, report func(token.Pos, string, string, ...any)) {
	for _, s := range stmts {
		scanStmt(f, s, held, report)
	}
}

// copyHeld snapshots the held set for a branch body.
func copyHeld(held map[string]bool) map[string]bool {
	cp := make(map[string]bool, len(held))
	for k, v := range held {
		cp[k] = v
	}
	return cp
}

func scanStmt(f *srcFile, s ast.Stmt, held map[string]bool, report func(token.Pos, string, string, ...any)) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		scanStmts(f, x.List, held, report)
	case *ast.LabeledStmt:
		scanStmt(f, x.Stmt, held, report)
	case *ast.IfStmt:
		if x.Init != nil {
			scanStmt(f, x.Init, held, report)
		}
		scanStmt(f, x.Body, copyHeld(held), report)
		if x.Else != nil {
			scanStmt(f, x.Else, copyHeld(held), report)
		}
	case *ast.ForStmt:
		scanStmt(f, x.Body, copyHeld(held), report)
	case *ast.RangeStmt:
		scanStmt(f, x.Body, copyHeld(held), report)
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			cc := c.(*ast.CommClause)
			h := copyHeld(held)
			if send, ok := cc.Comm.(*ast.SendStmt); ok {
				flagIfHeld(f, send.Pos(), h, report)
			}
			scanStmts(f, cc.Body, h, report)
		}
	case *ast.GoStmt:
		if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
			scanStmts(f, lit.Body.List, map[string]bool{}, report)
		}
	case *ast.DeferStmt:
		if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
			scanStmts(f, lit.Body.List, map[string]bool{}, report)
		}
		// Deferred Lock/Unlock calls run at function exit, not here.
	case *ast.ExprStmt:
		if recv, locking, ok := mutexCall(x.X); ok {
			if locking {
				held[recv] = true
			} else {
				delete(held, recv)
			}
			return
		}
		scanLeaf(f, s, held, report)
	default:
		scanLeaf(f, s, held, report)
	}
}

// scanLeaf inspects one non-control-flow statement for sends and Submit
// calls, without descending into nested function literals (their bodies
// run with their own lock context and are scanned separately where the
// goroutine is spawned).
func scanLeaf(f *srcFile, s ast.Stmt, held map[string]bool, report func(token.Pos, string, string, ...any)) {
	switch x := s.(type) {
	case *ast.SwitchStmt:
		if x.Init != nil {
			scanStmt(f, x.Init, held, report)
		}
		for _, c := range x.Body.List {
			scanStmts(f, c.(*ast.CaseClause).Body, copyHeld(held), report)
		}
		return
	case *ast.TypeSwitchStmt:
		for _, c := range x.Body.List {
			scanStmts(f, c.(*ast.CaseClause).Body, copyHeld(held), report)
		}
		return
	}
	if len(held) == 0 {
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			flagIfHeld(f, x.Pos(), held, report)
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Submit" {
				flagIfHeld(f, x.Pos(), held, report)
			}
		}
		return true
	})
}

// flagIfHeld reports a send executed with exclusive mutexes held.
func flagIfHeld(f *srcFile, pos token.Pos, held map[string]bool, report func(token.Pos, string, string, ...any)) {
	if len(held) == 0 || f.lockedSendOK[f.fset.Position(pos).Line] {
		return
	}
	names := make([]string, 0, len(held))
	for m := range held {
		names = append(names, m)
	}
	sort.Strings(names)
	report(pos, "locked-send",
		"channel send while holding %s: sending under an exclusive lock can deadlock the drain path (suppress a provably non-blocking case with //rtmap:locked-send-ok)",
		strings.Join(names, ", "))
}

// mutexCall decodes `recv.Lock()` / `recv.Unlock()` calls on mutex-named
// receivers, returning the receiver expression's source form and whether
// it acquires. RLock/RUnlock are not mutex calls here (see
// checkLockedSends).
func mutexCall(e ast.Expr) (recv string, locking, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock":
		locking = true
	case "Unlock":
	default:
		return "", false, false
	}
	inner, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel || !mutexName(inner.Sel.Name) {
		return "", false, false
	}
	return exprString(inner), locking, true
}

// mutexName reports whether an identifier names a mutex by the
// project's convention: "mu" exactly, or a "...Mu" suffix.
func mutexName(name string) bool {
	return name == "mu" || strings.HasSuffix(name, "Mu")
}

// exprString renders a selector chain (`f.mu`, `b.e.pipeMu`) for held-set
// keys and messages; non-selector shapes degrade to a fixed token.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "()"
	default:
		return "?"
	}
}
