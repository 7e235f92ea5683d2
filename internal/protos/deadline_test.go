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
	"repro/internal/core"
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

// heldRequest files a leave at site 1 from a group whose view lists one member,
// at site 2, whose link from site 1 is paused: its first try asks site 2 and is
// never answered. It returns the request and the call id of that try.
func heldRequest(t *testing.T, tc *testCluster) (*request, int64) {
	t.Helper()
	d, gid, member := tc.daemons[1], addr.NewGroup(2, 0, 1), addr.NewProcess(2, 0, 1)
	tc.net.PauseLink(1, 2)
	d.mu.Lock()
	d.remoteViews[gid] = core.View{Group: gid, ID: 1, Members: []addr.Address{member}}
	d.mu.Unlock()
	e := fileRequest(d, gbPacket{kind: gbLeave, group: gid, procs: addr.List{member}})
	first, _ := tryOf(d, e)
	if first == 0 {
		t.Fatal("the request's first try is not in flight")
	}
	return e, first
}

// fileRequest files a request, as ask does, and returns it without waiting
// for its end.
func fileRequest(d *Daemon, req gbPacket) *request {
	e := &request{gbPacket: req}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.queueLocked(e)
	d.driveLocked()
	return e
}

// awaitRequest waits for a filed request's end, as ask does.
func awaitRequest(d *Daemon, e *request) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for !e.done {
		d.wake.Wait()
	}
	return e.err
}

// tryOf returns the call id of a request's try in flight (0 between tries) and
// the tries counted.
func tryOf(d *Daemon, e *request) (int64, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return e.call, e.tries
}

// TestCallEndsAtItsTickDeadline holds the first try of a GBCAST request on a
// paused link. The try must end at its tick deadline: no sooner than
// CallTimeout, and within CallTimeout and two scan periods; it must leave the
// call table, so its answer, come late, ends nothing; and the request, its
// tries all unanswered, must end with ErrTimeout.
func TestCallEndsAtItsTickDeadline(t *testing.T) {
	const callTimeout = 200 * time.Millisecond
	tc := newFaultCluster(t, 2, simnet.FastConfig(), callTimeout, fdetect.Config{})
	d := tc.daemons[1]
	start := time.Now()
	e, first := heldRequest(t, tc)
	waitFor(t, "the first try to end", 5*time.Second, func() bool { call, _ := tryOf(d, e); return call != first })
	took := time.Since(start)
	if limit := callTimeout + 2*d.scanInterval; took < callTimeout || took > limit {
		t.Errorf("the try timed out after %v, want between %v and %v", took, callTimeout, limit)
	}
	d.mu.Lock()
	_, listed := d.calls[first]
	d.mu.Unlock()
	if listed {
		t.Error("the timed-out try is still in the call table")
	}
	d.handleTransport(2, answer{gb: &gbPacket{}}.encode(ptGbDone, first))
	if err := awaitRequest(d, e); !errors.Is(err, ErrTimeout) {
		t.Fatalf("the unanswered request returned %v, want ErrTimeout", err)
	}
	if n := pendingCalls(d); n != 0 {
		t.Errorf("%d calls left in the table after the only request ended", n)
	}
}

// TestSiteFailureEndsACallOnce holds the first try of a GBCAST request on a
// paused link and declares the site asked failed by hand. The try must end at
// once, in the failure handler's hold, and leave the call table; a second
// failure event and a late answer then find nothing to end or answer.
func TestSiteFailureEndsACallOnce(t *testing.T) {
	tc := newFaultCluster(t, 2, simnet.FastConfig(), 5*time.Second, fdetect.Config{})
	d := tc.daemons[1]
	e, first := heldRequest(t, tc)
	failed := fdetect.Event{Site: 2, Kind: fdetect.SiteFailed}
	d.onDetectorEvent(failed)
	if call, tries := tryOf(d, e); call == first || tries != 2 {
		t.Fatalf("after the failure the request is at call %d (the first was %d), %d tries; want the first ended and counted", call, first, tries)
	}
	d.onDetectorEvent(failed)
	d.handleTransport(2, answer{gb: &gbPacket{}}.encode(ptGbDone, first))
	d.mu.Lock()
	_, listed := d.calls[first]
	ended := e.done
	d.mu.Unlock()
	if _, tries := tryOf(d, e); listed || ended || tries != 2 {
		t.Errorf("after a second failure and a late answer: call listed %v, request ended %v, %d tries; want the try ended once", listed, ended, tries)
	}
}

// TestCloseEndsALookup closes a daemon while a lookup waits for ten sites that
// never answer, beside three Joins whose requests are held in one queue (the
// first's lookup of the group unanswered). The lookup and each Join must
// return ErrClosed, and not hang.
func TestCloseEndsALookup(t *testing.T) {
	tc := newFaultCluster(t, 1, simnet.FastConfig(), 5*time.Second, fdetect.Config{})
	d := tc.daemons[1]
	for s := addr.SiteID(2); s <= 11; s++ {
		tc.net.AddSite(s) // attached and silent: ten sites asked, none answering
	}
	ended := make(chan error, 1)
	go func() {
		_, err := d.Lookup("nobody")
		ended <- err
	}()
	waitFor(t, "the lookup to ask the ten sites", 5*time.Second, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		for _, pc := range d.calls {
			if lk, ok := pc.val.(*lookup); ok && lk.asked == 10 {
				return true
			}
		}
		return false
	})
	gid := addr.NewGroup(2, 0, 1)
	joined := make(chan error, 3)
	for range 3 {
		go func() {
			_, err := d.Join(tc.newProc(1).addr, gid, JoinOptions{})
			joined <- err
		}()
	}
	waitFor(t, "the joins' requests held", 5*time.Second, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		q := d.requests[gid]
		return len(q) == 3 && q[0].call != 0
	})
	d.Close()
	for range 4 {
		select {
		case err := <-ended:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("the lookup ended by Close returned %v, want ErrClosed", err)
			}
		case err := <-joined:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("a join ended by Close returned %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the lookup or a join hung after Close")
		}
	}
}

// askSite is one try of a GBCAST request at the site a test names, acting
// coordinator or not: the request goes under a call of its own, to the site's
// handler as a peer's or this site's own, and the answer is waited for on
// d.wake.
func askSite(d *Daemon, to addr.SiteID, req gbPacket) (*gbPacket, error) {
	w := &waiter{}
	d.mu.Lock()
	defer d.mu.Unlock()
	req.call = d.newCallLocked(to, ptGbDone, w)
	var raw []byte
	var err error
	if to == d.site {
		d.handleGbRequestLocked(to, &req)
	} else if raw, err = req.encode(ptGbRequest); err == nil {
		err = d.sendRaw(to, raw)
	}
	if err != nil {
		delete(d.calls, req.call)
		return nil, err
	}
	for !w.done {
		d.wake.Wait()
	}
	return w.gb, w.err
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
	d.handleTransport(1, encoded(t, ptGbPrepare, gbPacket{group: gid, call: 4242}))
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
