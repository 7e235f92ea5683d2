package protos

// Group lifecycle. Every hosted copy of a group is in exactly one phase, and
// the phase is assigned in exactly one place: Daemon.step, which looks the
// move up in the pure transition function next and performs the effects the
// move owes. Everything else in the package only reads the phase.
// ARCHITECTURE.md "Group lifecycle" holds next rendered as a table; a test
// keeps the two identical.

import (
	"repro/internal/addr"
	"repro/internal/events"
)

// phase is where a hosted group copy stands.
type phase uint8

const (
	// phaseNormal: primary and open; multicasts are sent and delivered.
	phaseNormal phase = iota
	// phaseFlushing: wedged by a GBCAST prepare, or by this site's request
	// carrying its answer to one. Senders block and incoming data packets are
	// parked, until the commit (or a notice, the watchdog, or the answer to
	// that request) ends the flush.
	phaseFlushing
	// phaseNonPrimary: stranded in a minority partition, read-only. Writes
	// are refused at once; what arrives is still delivered.
	phaseNonPrimary
	// phaseMerging: non-primary, with the copy's one merge attempt surveying
	// the sites (groupState.survey), which ends with the phase.
	phaseMerging
	// phaseDropped: this site no longer hosts the copy. Terminal.
	phaseDropped
	numPhases
)

// primary reports whether a copy in this phase belongs to the primary
// partition (a flush is a primary copy's business).
func (p phase) primary() bool { return p == phaseNormal || p == phaseFlushing }

// input is something that happens to a group copy.
type input uint8

const (
	inPrepare      input = iota // a flush prepare, from this site's coordinator or a remote one
	inCommit                    // a GBCAST commit was applied to the copy
	inNonPrimary                // gbNonPrimary notice: the coordinator reached no majority
	inResume                    // gbResume notice: total-wedge recovery resumes the agreed view
	inWatchdog                  // the flush has been open 4x CallTimeout: its commit is not coming
	inMergeStart                // a merge attempt begins
	inMergeResume               // the merge found the primary still at this copy's view
	inMergeAbandon              // the merge attempt ended without resuming or dropping the copy
	inDrop                      // the last local member left, or a merge discards the copy
	inAnswer                    // the coordinator answered the request try that carried the flush's ack
	numInputs
)

// effects is what a transition owes besides the new phase. A bit set, so
// taking a transition allocates nothing.
type effects uint8

const (
	fxFlushBegin     effects = 1 << iota // publish FlushBegin
	fxArmWatchdog                        // (re)set the deadline past which the open flush counts as stale
	fxEndFlush                           // publish FlushComplete, release what the flush parked, wake blocked senders
	fxPrimaryLost                        // publish PartitionWedge and PrimaryLost
	fxPrimaryResumed                     // publish PrimaryResumed
	fxMergeStart                         // publish MergeStart
)

// next is the lifecycle: the phase a copy moves to on an input, and what the
// move owes. Every pair not listed leaves the copy where it is and owes
// nothing — a resume notice at a primary copy, the watchdog of a flush that
// already ended, anything at all at a dropped copy.
func next(p phase, in input) (phase, effects) {
	switch p {
	case phaseNormal:
		switch in {
		case inPrepare:
			return phaseFlushing, fxFlushBegin | fxArmWatchdog
		case inNonPrimary:
			return phaseNonPrimary, fxPrimaryLost
		case inDrop:
			return phaseDropped, 0
		}
	case phaseFlushing:
		switch in {
		case inPrepare:
			// A takeover's prepare finds the dead coordinator's flush still
			// open: the same flush goes on, with a fresh clock.
			return phaseFlushing, fxArmWatchdog
		case inCommit, inWatchdog, inAnswer:
			return phaseNormal, fxEndFlush
		case inNonPrimary:
			return phaseNonPrimary, fxEndFlush | fxPrimaryLost
		case inDrop:
			return phaseDropped, fxEndFlush
		}
	case phaseNonPrimary, phaseMerging:
		// A prepare is answered — the report and view count toward the
		// coordinator's vote — but does not wedge: the commit that would end
		// the flush is never applied to a non-primary copy (it only triggers
		// the merge), so a wedge here could end only by the watchdog, with
		// every write waiting it out to be refused anyway.
		switch {
		case in == inResume:
			return phaseNormal, fxPrimaryResumed
		case in == inDrop:
			return phaseDropped, 0
		case in == inMergeStart && p == phaseNonPrimary:
			return phaseMerging, fxMergeStart
		case in == inMergeResume && p == phaseMerging:
			return phaseNormal, fxPrimaryResumed
		case in == inMergeAbandon && p == phaseMerging:
			return phaseNonPrimary, 0
		}
	}
	return p, 0
}

// heldPacket is a data packet whose processing is deferred while the group is
// flushing (a packet handler finishes in one hold of d.mu and may not wait),
// and the site it came from; a relay this site asked of itself is one.
type heldPacket struct {
	from addr.SiteID
	pkt  *dataPacket
}

// step feeds one input to a group copy's lifecycle and performs the effects
// of the transition, all of them before it returns: what an ending flush had
// parked has been taken up again by then, and a survey of a phase that ended
// has ended. It is the only writer of groupState.phase. Caller holds d.mu.
func (d *Daemon) step(gs *groupState, in input) {
	to, fx := next(gs.phase, in)
	gs.phase, gs.carried = to, 0
	gid := gs.view.Group
	if fx&fxFlushBegin != 0 {
		d.bus.Publish(events.Event{Kind: events.FlushBegin, Group: gid, View: gs.view.ID})
	}
	if fx&fxArmWatchdog != 0 {
		// A flush whose commit never arrives — a prepare retransmitted long
		// after its coordinator's round ended, e.g. across a partition heal —
		// would freeze the group forever. 4x the call timeout comfortably
		// exceeds the longest legitimate flush (a round's 3 tries, then the commit). The scan tick (scanTick)
		// feeds inWatchdog once the deadline has passed.
		gs.flushDeadline = d.deadlineLocked(4 * d.cfg.CallTimeout)
	}
	if fx&fxEndFlush != 0 {
		d.bus.Publish(events.Event{Kind: events.FlushComplete, Group: gid, View: gs.view.ID, Detail: flushEndDetail[in]})
		d.wake.Broadcast()
	}
	if fx&fxPrimaryLost != 0 {
		d.bus.Publish(events.Event{Kind: events.PartitionWedge, Group: gid, View: gs.view.ID})
		d.notifyPrimary(gid, false)
	}
	if fx&fxPrimaryResumed != 0 {
		d.notifyPrimary(gid, true)
	}
	if fx&fxMergeStart != 0 {
		d.bus.Publish(events.Event{Kind: events.MergeStart, Group: gid, View: gs.view.ID})
	}
	if sv := gs.survey; sv != nil && to != phaseMerging {
		gs.survey, sv.done = nil, true // a resume notice ended the phase, and the attempt
		delete(d.calls, sv.call)
		d.wake.Broadcast()
	}
	if fx&fxEndFlush != 0 {
		d.refeedLocked(gs)
	}
}

// flushEndDetail tells the FlushComplete events of the abnormal ways out of
// a flush from the commit's.
var flushEndDetail = [numInputs]string{
	inWatchdog:   "released by watchdog",
	inAnswer:     "request answered",
	inNonPrimary: "non-primary",
	inDrop:       "group dropped",
}

// refeedLocked takes up again the data packets the flush that just ended at a
// copy held back. The copy's flush is over and no other can begin inside this
// hold of d.mu, so nothing is parked twice; what belonged to a copy since
// dropped (dropGroupLocked) finds no group — a relay is refused, as by any
// site that hosts none. Called by step alone; caller holds d.mu.
func (d *Daemon) refeedLocked(gs *groupState) {
	rel := gs.parked
	gs.parked = nil
	for _, h := range rel {
		d.handleDataLocked(h.from, h.pkt)
	}
}

// settledGroupLocked returns the hosted copy of a group (nil if there is
// none) once no flush is open on it. It is the one way a sender waits for a
// flush: blocked on the condition step signals when a flush ends, and Close
// when the daemon stops. Caller holds d.mu, which the wait releases.
func (d *Daemon) settledGroupLocked(gid addr.Address) (*groupState, error) {
	for {
		if d.closed {
			return nil, ErrClosed
		}
		gs := d.groups[gid]
		if gs == nil || gs.phase != phaseFlushing {
			return gs, nil
		}
		d.wake.Wait()
	}
}
