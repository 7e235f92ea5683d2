package protos

// A suspicion only asks for a removal. A site that believes another failed
// stops calling it and, if it is the acting coordinator, requests the removal
// of its members; everything else — who proposes in an ABCAST round, who runs
// a GBCAST request — follows the view until that removal commits. The
// held-state tests below step the detector by hand (newFaultCluster's zero
// detector), so a site suspects exactly what the test tells it.

import (
	"errors"
	"go/ast"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/events"
	"repro/internal/fdetect"
	"repro/internal/simnet"
)

// TestSuspectedMemberSiteStillProposes has one member site suspect another
// that is alive and still listed in the view. An ABCAST its member casts must
// reach the suspected site all the same (the name is from the two-phase
// protocol, whose rounds had to target it): a suspicion decides nothing about
// who is sent a cast, and left out, that site would never deliver it.
func TestSuspectedMemberSiteStillProposes(t *testing.T) {
	tc := newFaultCluster(t, 3, simnet.FastConfig(), 5*time.Second, fdetect.Config{})
	procs := buildGroup(t, tc, "suspect", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "suspect")

	// Only site 2 is told that site 3 failed. The acting coordinator is site
	// 1's member, so nobody requests a removal: site 3 stays in the view.
	tc.daemons[2].onDetectorEvent(fdetect.Event{Site: 3, Kind: fdetect.SiteFailed})
	if _, err := tc.daemons[2].Multicast(procs[1].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body("held")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the ABCAST at every member, the suspected site's included", 3*time.Second, func() bool {
		return procs[0].got("held") && procs[1].got("held") && procs[2].got("held")
	})
}

// TestOnlyTheActingCoordinatorRunsARequest has a joiner's site suspect the
// group's coordinator site while nobody else does. The joiner's request goes
// to the next-oldest member's site, which must refuse it — site 1 is acting
// coordinator by its own lights — instead of running a second flush beside
// site 1's. Once the suspicion clears, the join is run by site 1 alone.
func TestOnlyTheActingCoordinatorRunsARequest(t *testing.T) {
	tc := newFaultCluster(t, 3, simnet.FastConfig(), 5*time.Second, fdetect.Config{})
	rec := simnet.NewRecorder()
	tc.net.SetTracer(rec)
	procs := buildGroup(t, tc, "onecoord", 1, 2)
	gid := groupOf(t, tc, procs[0], "onecoord")
	joiner := tc.newProc(3)

	// Frames site 2 sent site 3 that carry a packet (longer than the
	// transport's 17-byte pure ack), counted from a point where everything
	// site 2 had sent was acknowledged and so cannot be sent again.
	acked := func() bool { return tc.daemons[2].tr.Unacked() == 0 }
	waitFor(t, "site 2's packets acknowledged", 5*time.Second, acked)
	rec.Reset()
	from2to3 := func(kind simnet.EventKind) int {
		n := 0
		for _, e := range rec.Events() {
			if e.Kind == kind && e.From == 2 && e.To == 3 && e.Size > 17 {
				n++
			}
		}
		return n
	}
	if _, err := tc.daemons[3].Lookup("onecoord"); err != nil {
		t.Fatal(err)
	}
	// Once site 2's lookup answer is in and acknowledged, the next packet it
	// sends site 3 is its answer to the join request.
	waitFor(t, "site 2's lookup answer, acknowledged", 5*time.Second, func() bool {
		return from2to3(simnet.EventDeliver) == 1 && acked()
	})
	tc.net.PauseLink(2, 3)
	sent := from2to3(simnet.EventSend)
	committed := func(s addr.SiteID) uint64 { return tc.daemons[s].EventStats().ByKind[events.ViewCommitted] }
	before := map[addr.SiteID]uint64{1: committed(1), 2: committed(2), 3: committed(3)}

	tc.daemons[3].onDetectorEvent(fdetect.Event{Site: 1, Kind: fdetect.SiteFailed})
	done := make(chan joinResult, 1)
	go func() {
		v, err := tc.daemons[3].Join(joiner.addr, gid, JoinOptions{})
		done <- joinResult{v, err}
	}()
	waitFor(t, "site 2's answer to the join request, held on its way to site 3", 5*time.Second, func() bool {
		return from2to3(simnet.EventSend) > sent
	})
	tc.daemons[3].onDetectorEvent(fdetect.Event{Site: 1, Kind: fdetect.SiteRecovered})
	tc.net.ResumeAll()

	select {
	case r := <-done:
		if r.err != nil || !r.view.Contains(joiner.addr) {
			t.Fatalf("join = %v, %v; want a view with the joiner", r.view, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the join never completed")
	}
	for s, want := range map[addr.SiteID]uint64{1: 1, 2: 0, 3: 0} {
		if got := committed(s) - before[s]; got != want {
			t.Errorf("site %d published %d ViewCommitted for the join, want %d", s, got, want)
		}
	}
}

// TestStaleTakeoverRequestRemovesNobody asks the next-oldest member's site,
// from a third site, to remove the live coordinator's member — a takeover
// request sent on a stale suspicion. The site asked does not suspect the
// coordinator, so the member must stay, whether the request is refused or
// run and found not corroborated by the member's own site.
func TestStaleTakeoverRequestRemovesNobody(t *testing.T) {
	tc := newFaultCluster(t, 3, simnet.FastConfig(), 5*time.Second, fdetect.Config{})
	procs := buildGroup(t, tc, "stale", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "stale")
	d3 := tc.daemons[3]

	d3.mu.Lock()
	req := gbPacket{kind: gbFail, group: gid, procs: addr.List{procs[0].addr}, force: true, reqID: d3.newReqIDLocked()}
	d3.mu.Unlock()
	resp, err := askSite(d3, 2, req)
	switch {
	case err == nil && !resp.view.Contains(procs[0].addr):
		t.Errorf("the stale request removed the coordinator's member: %v", resp.view)
	case err != nil && !errors.Is(err, errNotCoordinator):
		t.Errorf("the stale request failed with %v, want a refusal or nothing removed", err)
	}
	for i, p := range procs {
		if v := p.lastView(); v.Size() != 3 {
			t.Errorf("member %d holds view %v, want all three members", i+1, v)
		}
	}
}

// TestSuspicionReadsMatchArchitectureDoc lists the functions of the package
// that read d.suspected and compares them with the census table in
// ARCHITECTURE.md "Failure and partition model": a new read is argued there —
// its role, and why it cannot shrink a decision — or this test fails.
func TestSuspicionReadsMatchArchitectureDoc(t *testing.T) {
	_, files := parsePackage(t)
	isSuspected := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "suspected" {
			return false
		}
		d, ok := sel.X.(*ast.Ident)
		return ok && d.Name == "d"
	}
	reads := make(map[string]bool)
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			// Writes — an assignment to an entry, a delete — are not reads. A
			// statement is visited before the expressions inside it.
			written := make(map[ast.Expr]bool)
			ast.Inspect(fn, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if ix, ok := lhs.(*ast.IndexExpr); ok {
							written[ix.X] = true
						}
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" {
						written[n.Args[0]] = true
					}
				case *ast.SelectorExpr:
					if isSuspected(n) && !written[n] {
						reads[fn.Name.Name] = true
					}
				}
				return true
			})
		}
	}
	if len(reads) == 0 {
		t.Fatal("found no read of d.suspected: the check is not looking at the package")
	}

	doc, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	const header = "| function | role | why it cannot shrink a decision |\n"
	_, table, ok := strings.Cut(string(doc), header)
	if !ok {
		t.Fatalf("ARCHITECTURE.md has no table headed %q", strings.TrimSpace(header))
	}
	var listed []string
	for _, row := range strings.Split(table, "\n") {
		if !strings.HasPrefix(row, "|") {
			break
		}
		if cell := strings.TrimSpace(strings.Split(row, "|")[1]); !strings.HasPrefix(cell, "---") {
			listed = append(listed, strings.Trim(cell, "`"))
		}
	}
	slices.Sort(listed)
	if code := slices.Sorted(maps.Keys(reads)); !slices.Equal(code, listed) {
		t.Errorf("d.suspected is read in %v; ARCHITECTURE.md's census lists %v", code, listed)
	}
}
