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

// TestPhaseHasOneWriter parses the package and fails if anything but
// Daemon.step in lifecycle.go writes a groupState's phase: by assignment, by
// ++/--, by taking its address, or by naming it in a composite literal.
func TestPhaseHasOneWriter(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	isPhase := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "phase"
	}
	files := 0
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			files++
			ast.Inspect(f, func(n ast.Node) bool {
				if fn, ok := n.(*ast.FuncDecl); ok && fn.Name.Name == "step" && strings.HasSuffix(name, "lifecycle.go") {
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
	if files < 5 {
		t.Fatalf("parsed only %d files: the check is not looking at the package", files)
	}
}
