package protos

// The two deadlines the daemon keeps are fields the scan tick reads — no
// timer is armed for either — so these tests run under a short CallTimeout
// and wait for the scan to act on them.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/events"
	"repro/internal/fdetect"
	"repro/internal/simnet"
)

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

// TestScanCompletesUnansweredAbcastRound holds back the one proposal an
// ABCAST round waits for. The round must complete on the initiator's own
// proposal at its CallTimeout deadline, and not before.
func TestScanCompletesUnansweredAbcastRound(t *testing.T) {
	const callTimeout = 200 * time.Millisecond
	tc := newFaultCluster(t, 2, simnet.FastConfig(), callTimeout, patientDetector())
	procs := buildGroup(t, tc, "unanswered", 1, 2)
	gid := groupOf(t, tc, procs[0], "unanswered")
	d := tc.daemons[1]

	tc.net.PauseLink(2, 1)
	start := time.Now()
	if _, err := d.Multicast(procs[0].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body("late")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the scan to complete the round", 10*callTimeout, func() bool { return procs[0].got("late") })
	if took := time.Since(start); took < callTimeout {
		t.Errorf("the round completed after %v, before its %v deadline: something else ended it", took, callTimeout)
	}
	if n := len(pendingRounds(d)); n != 0 {
		t.Errorf("%d rounds pending after the deadline completed the only one", n)
	}
	// The commit went out on the link that was never paused.
	waitFor(t, "delivery at the member that was not heard", 5*time.Second, func() bool { return procs[1].got("late") })
	tc.net.ResumeLink(2, 1)
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
