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
	"os"
	"slices"
	"strings"
	"testing"
)

// The names the table is printed with, in ARCHITECTURE.md and in failures.
var (
	phaseNames  = [numPhases]string{"normal", "flushing", "non-primary", "merging", "dropped"}
	inputNames  = [numInputs]string{"prepare", "commit", "non-primary notice", "resume notice", "watchdog", "merge start", "merge resume", "merge abandon", "drop"}
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
// the daemon mutex: a packet handler, the scan tick and the failure handler
// take it once and let go only by returning, so whatever they decide they send,
// deliver and publish before any other step runs; nothing that is handed the
// lock gives it up; the send path starts no goroutine; and what a flush parked
// is taken up again by the transition that ends the flush, nowhere else.
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

	funcs := make(map[string]*ast.FuncDecl)
	for name, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok && (name == "mcast.go" || name == "lifecycle.go") {
				t.Errorf("%s: the send path and the lifecycle start no goroutine", fset.Position(g.Pos()))
			}
			return true
		})
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				funcs[fn.Name.Name] = fn
			}
		}
	}
	for name, fn := range funcs {
		if locks, unlocks, _ := muUse(fn); strings.HasSuffix(name, "Locked") && locks+unlocks > 0 {
			t.Errorf("%s is handed d.mu and locks or unlocks it", name)
		}
		if name != "step" && slices.Contains(daemonCalls(fn), "refeedLocked") {
			t.Errorf("%s calls refeedLocked: only step may", name)
		}
	}
	if step := funcs["step"]; step == nil || step.Type.Results != nil || !slices.Contains(daemonCalls(step), "refeedLocked") {
		t.Error("step must return nothing and re-feed what the flush parked itself")
	}

	steps := append(daemonCalls(funcs["handleTransport"]), "resolicitStragglers", "handleSiteFailure")
	if len(steps) < 12 {
		t.Fatalf("found only %v: the check is not looking at handleTransport's dispatch", steps)
	}
	for _, name := range steps {
		// A handler that names no lock at all (handleGbRequest) only queues
		// work: its step is the one hold of the function it hands to.
		locks, unlocks, deferred := muUse(funcs[name])
		if locks+unlocks > 0 && (locks != 1 || unlocks != 1 || deferred != 1) {
			t.Errorf("%s: %d d.mu.Lock(), %d d.mu.Unlock(), %d deferred; a step locks once and unlocks by defer", name, locks, unlocks, deferred)
		}
	}
}
