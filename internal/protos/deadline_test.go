package protos

// The deadlines the daemon keeps are counts of its scan ticks — no timer is
// armed for any — so these tests run under a short CallTimeout and wait for the
// scan to act on them. A call ends exactly once, by its answer, the failure of
// the site asked, its deadline or Close; three tests here end one each of the
// last three ways.

import (
	"errors"
	"fmt"
	"go/ast"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/events"
	"repro/internal/fdetect"
	"repro/internal/simnet"
)

// TestClockReadOnScanTickAlone parses the package and lists every call of one
// of package time's clock functions. Only the scan loop's ticker may read the
// clock, as every deadline is a count of its ticks and every retry waits for
// the next one; and Flush, whose poll waits for an event the daemon does not
// have yet (a peer's ack retiring the site's last record).
func TestClockReadOnScanTickAlone(t *testing.T) {
	clock := []string{"Now", "Since", "Until", "Sleep", "After", "AfterFunc", "NewTimer", "NewTicker", "Tick"}
	allowed := []string{"runScan", "Flush"}
	fset, files := parsePackage(t)
	var sites []string
	outside := 0
	for _, f := range files {
		for _, decl := range f.Decls {
			owner := "package level"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				owner = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && slices.Contains(clock, sel.Sel.Name) {
					site := fmt.Sprintf("%s: %s calls time.%s", fset.Position(call.Pos()), owner, sel.Sel.Name)
					if !slices.Contains(allowed, owner) {
						site += " (not allowed)"
						outside++
					}
					sites = append(sites, site)
				}
				return true
			})
		}
	}
	if len(sites) == 0 {
		t.Fatal("found no clock read at all: the check is not looking at the package")
	}
	if outside > 0 {
		slices.Sort(sites)
		t.Errorf("%d of the package's %d clock reads are outside the scan loop and Flush:\n%s", outside, len(sites), strings.Join(sites, "\n"))
	}
}

// TestCallEndsAtItsTickDeadline asks a site whose link is paused for a prepare
// ack. The call must end with ErrTimeout at its tick deadline: no sooner than
// CallTimeout, and within CallTimeout and two scan periods; and it must leave
// the call table.
func TestCallEndsAtItsTickDeadline(t *testing.T) {
	const callTimeout = 200 * time.Millisecond
	tc := newFaultCluster(t, 2, simnet.FastConfig(), callTimeout, fdetect.Config{})
	d := tc.daemons[1]
	tc.net.PauseLink(1, 2)
	start := time.Now()
	_, err := d.call(2, ptGbPrepare, gbPacket{group: addr.NewGroup(2, 0, 1), seq: 1})
	took := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("the unanswered call returned %v, want ErrTimeout", err)
	}
	if limit := callTimeout + 2*d.scanInterval; took < callTimeout || took > limit {
		t.Errorf("the call timed out after %v, want between %v and %v", took, callTimeout, limit)
	}
	if n := pendingCalls(d); n != 0 {
		t.Errorf("%d calls left in the table after the only one timed out", n)
	}
}

// TestSiteFailureEndsACallOnce holds a call to a site whose link is paused and
// declares the site failed by hand. The call must end with errSiteFailed; a
// second failure event and a late answer then find nothing to end or answer.
func TestSiteFailureEndsACallOnce(t *testing.T) {
	tc := newFaultCluster(t, 2, simnet.FastConfig(), 5*time.Second, fdetect.Config{})
	d := tc.daemons[1]
	tc.net.PauseLink(1, 2)
	ended := make(chan error, 1)
	go func() {
		_, err := d.call(2, ptGbPrepare, gbPacket{group: addr.NewGroup(2, 0, 1), seq: 1})
		ended <- err
	}()
	var id int64
	waitFor(t, "the call to be registered", 5*time.Second, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		for id = range d.calls {
		}
		return id != 0
	})
	failed := fdetect.Event{Site: 2, Kind: fdetect.SiteFailed}
	d.onDetectorEvent(failed)
	select {
	case err := <-ended:
		if !errors.Is(err, errSiteFailed) {
			t.Fatalf("the call to the failed site returned %v, want errSiteFailed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the site failure did not end the call")
	}
	d.onDetectorEvent(failed)
	d.handleTransport(2, answer{gb: &gbPacket{}}.encode(ptGbAck, id))
	if n := pendingCalls(d); n != 0 {
		t.Errorf("%d calls left in the table after the only one ended", n)
	}
}

// TestCloseEndsALookupWithAFullChannel closes a daemon while a lookup, with
// sites still to hear from, holds a channel full of answers. The lookup must
// return ErrClosed, and not hang: the cause reaches the waiter though no
// answer can be queued behind those it has.
func TestCloseEndsALookupWithAFullChannel(t *testing.T) {
	tc := newFaultCluster(t, 1, simnet.FastConfig(), 5*time.Second, fdetect.Config{})
	d := tc.daemons[1]
	for s := addr.SiteID(2); s <= 11; s++ {
		tc.net.AddSite(s) // attached and silent: ten sites asked, none answering
	}
	gate := make(chan struct{})
	ended := make(chan error, 1)
	go func() {
		_, err := d.lookupAll("nobody", addr.Nil, func(*lookupPacket) bool {
			<-gate
			return false
		})
		ended <- err
	}()
	var id int64
	var c *pendingCall
	waitFor(t, "the lookup to be registered", 5*time.Second, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		for id, c = range d.calls {
		}
		return c != nil
	})
	feed := func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.respondLocked(id, ptLookupResp, answer{look: &lookupPacket{}})
	}
	feed()
	waitFor(t, "the lookup to take the first answer", 5*time.Second, func() bool { return len(c.ch) == 0 })
	for range cap(c.ch) + 1 { // the last one finds the channel full
		feed()
	}
	d.Close()
	close(gate)
	select {
	case err := <-ended:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("the lookup ended by Close returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the lookup hung after Close")
	}
}

// pendingCalls counts the calls in a daemon's table.
func pendingCalls(d *Daemon) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.calls)
}

// patientDetector never suspects anybody within a test's lifetime, so what
// ends a wait is the deadline under test and not a failure view.
func patientDetector() fdetect.Config {
	return fdetect.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		InitialTimeout:    time.Minute,
		MinTimeout:        time.Minute,
		MaxTimeout:        time.Minute,
	}
}

// TestScanReleasesCommitlessFlush hands a primary copy a prepare no commit
// will ever follow (its coordinator's round ended long ago). The copy must
// flush, hold a sender, and be released by the scan once the flush has been
// open 4x CallTimeout — with a FlushComplete that says so.
func TestScanReleasesCommitlessFlush(t *testing.T) {
	const callTimeout = 100 * time.Millisecond
	tc := newFaultCluster(t, 2, simnet.FastConfig(), callTimeout, patientDetector())
	procs := buildGroup(t, tc, "commitless", 1, 2)
	gid := groupOf(t, tc, procs[0], "commitless")
	d := tc.daemons[2]
	flushes, cancel := d.Events(events.Filter{Kinds: []events.Kind{events.FlushBegin, events.FlushComplete}, Group: gid}, 0)
	defer cancel()
	next := func() events.Event {
		t.Helper()
		var ev events.Event
		select {
		case ev = <-flushes:
		case <-time.After(2 * time.Second):
			t.Fatal("no flush event")
		}
		return ev
	}

	start := time.Now()
	d.handleTransport(1, encoded(t, ptGbPrepare, gbPacket{group: gid, seq: 99, call: 4242}))
	if ev := next(); ev.Kind != events.FlushBegin {
		t.Fatalf("the prepare published %v, want FlushBegin", ev)
	}

	// A sender blocks on the open flush and goes through when it ends.
	if _, err := d.Multicast(procs[1].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("held")); err != nil {
		t.Fatalf("send across the released flush: %v", err)
	}
	if took := time.Since(start); took < 4*callTimeout {
		t.Errorf("the flush was released after %v, before its %v deadline", took, 4*callTimeout)
	}
	if ev := next(); ev.Kind != events.FlushComplete || !strings.Contains(ev.Detail, "released by watchdog") {
		t.Errorf("the flush ended with %v, want FlushComplete released by watchdog", ev)
	}
	waitFor(t, "the held message to reach the other member", 5*time.Second, func() bool { return procs[0].got("held") })
}
