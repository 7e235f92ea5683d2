package protos

// The group lifecycle as a table: every phase against every input, with no
// daemon and no network. TestLifecycleTableMatchesArchitectureDoc keeps the
// rendering in ARCHITECTURE.md identical to the code, and
// TestPhaseHasOneWriter keeps Daemon.step the only place the phase changes.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"slices"
	"strings"
	"testing"
)

// The names the table is printed with, in ARCHITECTURE.md and in failures.
var (
	phaseNames  = [numPhases]string{"normal", "flushing", "non-primary", "merging", "dropped"}
	inputNames  = [numInputs]string{"prepare", "commit", "non-primary notice", "resume notice", "watchdog", "merge start", "merge resume", "merge abandon", "drop", "request answered"}
	effectNames = []string{"flush-begin", "arm-watchdog", "end-flush", "primary-lost", "primary-resumed", "merge-start"}
)

func (p phase) String() string  { return phaseNames[p] }
func (in input) String() string { return inputNames[in] }

func TestLifecycleTransitions(t *testing.T) {
	type cell struct {
		to phase
		fx effects
	}
	stay := func(p phase) cell { return cell{p, 0} }
	want := map[phase]map[input]cell{
		phaseNormal: {
			inPrepare:    {phaseFlushing, fxFlushBegin | fxArmWatchdog},
			inNonPrimary: {phaseNonPrimary, fxPrimaryLost},
			inDrop:       {phaseDropped, 0},
		},
		phaseFlushing: {
			inPrepare:    {phaseFlushing, fxArmWatchdog},
			inCommit:     {phaseNormal, fxEndFlush},
			inWatchdog:   {phaseNormal, fxEndFlush},
			inAnswer:     {phaseNormal, fxEndFlush},
			inNonPrimary: {phaseNonPrimary, fxEndFlush | fxPrimaryLost},
			inDrop:       {phaseDropped, fxEndFlush},
		},
		phaseNonPrimary: {
			inResume:     {phaseNormal, fxPrimaryResumed},
			inMergeStart: {phaseMerging, fxMergeStart},
			inDrop:       {phaseDropped, 0},
		},
		phaseMerging: {
			inResume:       {phaseNormal, fxPrimaryResumed},
			inMergeResume:  {phaseNormal, fxPrimaryResumed},
			inMergeAbandon: {phaseNonPrimary, 0},
			inDrop:         {phaseDropped, 0},
		},
		phaseDropped: {},
	}
	for p := phase(0); p < numPhases; p++ {
		for in := input(0); in < numInputs; in++ {
			w, listed := want[p][in]
			if !listed {
				w = stay(p)
			}
			to, fx := next(p, in)
			if to != w.to || fx != w.fx {
				t.Errorf("next(%v, %v) = %v, %s; want %v, %s", p, in, to, renderEffects(fx), w.to, renderEffects(w.fx))
			}
		}
	}
}

// TestLifecycleFlushAlwaysCloses is the table's one structural property: a
// flush is opened by exactly the transitions into flushing, and no input
// leaves flushing without ending it — publishing the closing event and
// releasing what was parked. Nothing but a flush is ever ended.
func TestLifecycleFlushAlwaysCloses(t *testing.T) {
	for p := phase(0); p < numPhases; p++ {
		for in := input(0); in < numInputs; in++ {
			to, fx := next(p, in)
			enters := p != phaseFlushing && to == phaseFlushing
			leaves := p == phaseFlushing && to != phaseFlushing
			if got := fx&fxFlushBegin != 0; got != enters {
				t.Errorf("next(%v, %v): flush-begin = %v, enters flushing = %v", p, in, got, enters)
			}
			if got := fx&fxEndFlush != 0; got != leaves {
				t.Errorf("next(%v, %v): end-flush = %v, leaves flushing = %v", p, in, got, leaves)
			}
			if enters && fx&fxArmWatchdog == 0 {
				t.Errorf("next(%v, %v) opens a flush with no watchdog armed", p, in)
			}
			if to != phaseFlushing && fx&fxArmWatchdog != 0 {
				t.Errorf("next(%v, %v) arms the watchdog outside a flush", p, in)
			}
		}
	}
}

func renderEffects(fx effects) string {
	var names []string
	for i, name := range effectNames {
		if fx&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return "-"
	}
	return strings.Join(names, ", ")
}

// renderLifecycle prints next as the table ARCHITECTURE.md carries: a row for
// every transition that moves the copy or owes an effect, and per phase the
// inputs that change nothing.
func renderLifecycle() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-19s %-12s %s\n", "phase", "input", "next", "effects")
	for p := phase(0); p < numPhases; p++ {
		var ignored []string
		for in := input(0); in < numInputs; in++ {
			to, fx := next(p, in)
			if to == p && fx == 0 {
				ignored = append(ignored, in.String())
				continue
			}
			fmt.Fprintf(&b, "%-12s %-19s %-12s %s\n", p, in, to, renderEffects(fx))
		}
		if len(ignored) == int(numInputs) {
			ignored = []string{"every input"}
		}
		fmt.Fprintf(&b, "%-12s ignores: %s\n", p, strings.Join(ignored, ", "))
	}
	return b.String()
}

func TestLifecycleTableMatchesArchitectureDoc(t *testing.T) {
	doc, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	const open, end = "```lifecycle\n", "```"
	_, rest, ok := strings.Cut(string(doc), open)
	if !ok {
		t.Fatalf("ARCHITECTURE.md has no %q block", strings.TrimSpace(open))
	}
	block, _, _ := strings.Cut(rest, end)
	if want := renderLifecycle(); block != want {
		t.Errorf("the lifecycle table in ARCHITECTURE.md is not the code's; replace the block with:\n%s", want)
	}
}

// parsePackage parses the package's non-test files, by file name.
func parsePackage(t *testing.T) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := pkgs["protos"].Files
	if len(files) < 5 {
		t.Fatalf("parsed only %d files: the check is not looking at the package", len(files))
	}
	return fset, files
}

// TestPhaseHasOneWriter parses the package and fails if anything but
// Daemon.step in lifecycle.go writes a groupState's phase: by assignment, by
// ++/--, by taking its address, or by naming it in a composite literal.
func TestPhaseHasOneWriter(t *testing.T) {
	fset, files := parsePackage(t)
	isPhase := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "phase"
	}
	for name, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok && fn.Name.Name == "step" && name == "lifecycle.go" {
				return false // the one writer
			}
			var bad ast.Node
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if isPhase(lhs) {
						bad = lhs
					}
				}
			case *ast.IncDecStmt:
				if isPhase(n.X) {
					bad = n
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND && isPhase(n.X) {
					bad = n
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok && id.Name == "phase" {
					bad = n
				}
			}
			if bad != nil {
				t.Errorf("%s writes a lifecycle phase outside Daemon.step", fset.Position(bad.Pos()))
			}
			return true
		})
	}
}

// TestOneLockHoldPerStep parses the package and pins how a protocol step uses
// the daemon mutex: handleTransport takes it once for every packet and lets go
// only by returning, and so do the scan tick and the failure handler, so
// whatever they decide they send, deliver and publish before any other step
// runs; everything a packet is dispatched to is handed the lock, and nothing
// that is handed the lock gives it up or waits out a flush; no channel but
// the scan loop's and New's start gate is received from; the send path, the lifecycle, the GBCAST rounds, the
// requests and the merge start no goroutine; and what a flush parked is taken
// up again by the transition that ends the flush, nowhere else.
func TestOneLockHoldPerStep(t *testing.T) {
	fset, files := parsePackage(t)
	// muCall reports whether n is the call d.mu.<method>().
	muCall := func(n ast.Node, method string) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return false
		}
		mu, ok := sel.X.(*ast.SelectorExpr)
		if !ok || mu.Sel.Name != "mu" {
			return false
		}
		d, ok := mu.X.(*ast.Ident)
		return ok && d.Name == "d"
	}
	// muUse counts a function's d.mu.Lock() and d.mu.Unlock() calls, and how
	// many of the latter are deferred.
	muUse := func(fn *ast.FuncDecl) (locks, unlocks, deferred int) {
		ast.Inspect(fn, func(n ast.Node) bool {
			switch {
			case muCall(n, "Lock"):
				locks++
			case muCall(n, "Unlock"):
				unlocks++
			}
			if def, ok := n.(*ast.DeferStmt); ok && muCall(def.Call, "Unlock") {
				deferred++
			}
			return true
		})
		return
	}
	// daemonCalls lists the methods a function calls on d itself.
	daemonCalls := func(fn *ast.FuncDecl) []string {
		var names []string
		if fn == nil {
			return nil
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if d, ok := sel.X.(*ast.Ident); ok && d.Name == "d" {
						names = append(names, sel.Sel.Name)
					}
				}
			}
			return true
		})
		return names
	}

	// The send path, the lifecycle, the GBCAST rounds, the requests and the
	// merge start no goroutine: each is a value a step moves.
	noGo := []string{"mcast.go", "lifecycle.go", "gbcast.go", "groups.go", "merge.go"}
	funcs := make(map[string]*ast.FuncDecl)
	for name, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			funcs[fn.Name.Name] = fn
			ast.Inspect(fn, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok && slices.Contains(noGo, name) {
					t.Errorf("%s: %s starts a goroutine; the send path, the lifecycle, the GBCAST rounds, the requests and the merge start none", fset.Position(g.Pos()), fn.Name.Name)
				}
				return true
			})
			// A call's answer and every end a caller waits for are values
			// read under d.mu: the only channels received from are the scan
			// loop's stop signal and ticker, and New's start gate.
			receives := map[string]string{"d.stopScan": "runScan", "t.C": "runScan", "whole": "New"}
			ast.Inspect(fn, func(n ast.Node) bool {
				if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					if ch := types.ExprString(u.X); receives[ch] != fn.Name.Name {
						t.Errorf("%s: %s receives from %s; an answer is a value read under d.mu", fset.Position(u.Pos()), fn.Name.Name, ch)
					}
				}
				return true
			})
		}
	}
	for name, fn := range funcs {
		locked := strings.HasSuffix(name, "Locked")
		if locks, unlocks, _ := muUse(fn); locked && locks+unlocks > 0 {
			t.Errorf("%s is handed d.mu and locks or unlocks it", name)
		}
		if locked && slices.Contains(daemonCalls(fn), "settledGroupLocked") {
			t.Errorf("%s is handed d.mu and waits out a flush with it (settledGroupLocked)", name)
		}
		if name != "step" && slices.Contains(daemonCalls(fn), "refeedLocked") {
			t.Errorf("%s calls refeedLocked: only step may", name)
		}
	}
	if step := funcs["step"]; step == nil || step.Type.Results != nil || !slices.Contains(daemonCalls(step), "refeedLocked") {
		t.Error("step must return nothing and re-feed what the flush parked itself")
	}

	// handleTransport holds d.mu once for every packet, by defer, and
	// dispatches only to handlers that are handed the lock: one a packet type,
	// and respondLocked for every answer; then it moves the requests on.
	handlers := daemonCalls(funcs["handleTransport"])
	if want := []string{"deliverReplyLocked", "handleDataLocked", "handleGbRequestLocked", "handleGbPrepareLocked",
		"handleGbAckLocked", "applyGbCommitLocked", "handleLookupLocked", "handleStateBlockLocked", "respondLocked", "driveLocked"}; !slices.Equal(handlers, want) {
		t.Fatalf("handleTransport dispatches to %v, want %v", handlers, want)
	}
	for _, name := range handlers {
		if !strings.HasSuffix(name, "Locked") {
			t.Errorf("a packet is dispatched to %s, which is not handed d.mu", name)
		}
	}
	for _, name := range []string{"handleTransport", "scanTick", "handleSiteFailure"} {
		if locks, unlocks, deferred := muUse(funcs[name]); locks != 1 || unlocks != 1 || deferred != 1 {
			t.Errorf("%s: %d d.mu.Lock(), %d d.mu.Unlock(), %d deferred; a step locks once and unlocks by defer", name, locks, unlocks, deferred)
		}
	}
}

// TestOnlyPinnedFunctionsWait parses the package and pins where a goroutine
// of the daemon's callers waits: on d.wake alone, in ask, MergeGroup,
// settledGroupLocked, lookupRemote and relayCall (a request's caller, a merge
// attempt's, a sender a flush holds back, a lookup's and a relay's caller),
// for what a step files under d.mu; Close alone waits for the daemon's
// goroutines to stop. relayCall has no loop but its wait: a relay is one
// request and one answer, and a relay site that cannot send it yet holds it.
func TestOnlyPinnedFunctionsWait(t *testing.T) {
	_, files := parsePackage(t)
	waiters := map[string][]string{}
	// waitLoop reports whether n is a loop whose body is d.wake.Wait() alone.
	waitLoop := func(n ast.Node) bool {
		f, ok := n.(*ast.ForStmt)
		if !ok || len(f.Body.List) != 1 {
			return false
		}
		s, ok := f.Body.List[0].(*ast.ExprStmt)
		return ok && types.ExprString(s.X) == "d.wake.Wait()"
	}
	loops := -1 // relayCall's, once it is found
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn.Name.Name == "relayCall" {
				loops = 0
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
						waiters[types.ExprString(n.Fun)] = append(waiters[types.ExprString(n.Fun)], fn.Name.Name)
					}
				case *ast.ForStmt, *ast.RangeStmt:
					loops += int(bit(fn.Name.Name == "relayCall" && !waitLoop(n)))
				}
				return true
			})
		}
	}
	want := map[string][]string{"d.wake.Wait": {"MergeGroup", "ask", "lookupRemote", "relayCall", "settledGroupLocked"}, "d.wg.Wait": {"Close"}}
	for call, fns := range waiters {
		slices.Sort(fns)
		if !slices.Equal(fns, want[call]) {
			t.Errorf("%s is called in %v, want %v", call, fns, want[call])
		}
	}
	if len(waiters) != len(want) {
		t.Errorf("the waits found are %v, want d.wake.Wait and Close's d.wg.Wait", waiters)
	}
	switch {
	case loops < 0:
		t.Error("there is no relayCall")
	case loops > 0:
		t.Errorf("relayCall has %d loops besides its wait, want none: a relay is one request and one answer", loops)
	}
}
