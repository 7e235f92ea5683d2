package protos

// The decisions of a GBCAST flush, as pure functions of what phase 1
// collected: no daemon, no lock, no network. executeGb collects (I/O), calls
// decideFlush, and commits (I/O); the rules live here.

import (
	"repro/internal/addr"
	"repro/internal/core"
)

// prepareAck is one member site's answer to a flush prepare. It travels in a
// ptGbAck; the coordinator's own is produced by the same prepareLocalLocked call.
type prepareAck struct {
	report pendingReport
	view   core.View // the site's current view of the group (zero: it hosts no copy)
	dead   addr.List // removal targets the site confirms dead on its own evidence
	vote   int64     // gbSeal: the site's first-hand knowledge of the target id
}

// flushRound is what a coordinator knows once phase 1 has been collected.
type flushRound struct {
	kind  int64
	procs []addr.Address             // the processes the change names
	view  core.View                  // the coordinator's view when the round began
	self  addr.SiteID                // the coordinator's site
	acks  map[addr.SiteID]prepareAck // every site that answered, self included
}

// flushDecision is what phase 2 must carry out.
type flushDecision struct {
	nonPrimary bool           // no majority was reached: wedge this side read-only, commit nothing
	procs      []addr.Address // the change's processes that survived corroboration
	base       core.View      // the most advanced view any member reported
	newView    core.View
	rebcast    pendingReport // what to re-disseminate before the GBCAST point
	outcome    int64         // gbSeal verdict: voteCommitted or voteAborted
}

// decideFlush turns a collected phase 1 into the commit's content.
func decideFlush(r flushRound) flushDecision {
	dec := flushDecision{procs: r.procs, base: r.view, outcome: voteAborted}

	// Corroborate failure removals: a target whose hosting site answered the
	// prepare and vouches for the process must not be removed. A failure
	// claim is honoured only when the hosting site is unreachable, confirms
	// the death itself (a locally detected process crash, or a ghost of a
	// previous incarnation), or the coordinator has its own evidence. This
	// is what stops a stale takeover request — e.g. one a wedged minority
	// sent toward a presumed-dead coordinator, queued in the reliable
	// transport and retransmitted across the partition heal — from removing
	// perfectly healthy members.
	if r.kind == gbFail {
		dec.procs = make([]addr.Address, 0, len(r.procs))
		for _, pr := range r.procs {
			host, reached := r.acks[pr.Site]
			if !reached || host.dead.Contains(pr) || r.acks[r.self].dead.Contains(pr) {
				dec.procs = append(dec.procs, pr)
			}
		}
	}

	reports := make(map[addr.SiteID]pendingReport, len(r.acks))
	for site, ack := range r.acks {
		reports[site] = ack.report
		// A coordinator taking over from one that died mid-commit may find
		// members already at a later view than its own: base the change on
		// the most advanced view any member reports, so the dead
		// coordinator's partially completed commit is finished (re-run,
		// idempotently) rather than contradicted by a conflicting view with
		// the same id.
		if ack.view.Group == dec.base.Group && ack.view.ID > dec.base.ID {
			dec.base = ack.view
		}
		// One positive report suffices to settle a request as committed: a
		// commit that reached any survivor counts, even when this (successor)
		// coordinator missed it.
		if ack.vote == voteCommitted {
			dec.outcome = voteCommitted
		}
	}

	// Primary-partition rule: only the partition holding at least half of
	// the last agreed view's members may commit. A coordinator that reached
	// fewer wedges its side of the group into non-primary mode instead of
	// minting a split-brain view; the partition that retains the majority
	// keeps committing, and the minority rejoins through the merge protocol
	// once the partition heals. Exactly half passes, so a group that loses
	// half its members to a genuine crash (the paper's 2-member fail-over
	// scenarios) stays available; the cost is that an exactly-even split is
	// resolved in favour of availability on both sides — deploy odd
	// replication degrees where strict primary-partition semantics matter.
	votes := 0
	for _, m := range dec.base.Members {
		if _, reached := r.acks[m.Site]; reached {
			votes++
		}
	}
	if votes*2 < len(dec.base.Members) {
		dec.nonPrimary = true
		return dec
	}

	// The new view. A join whose members are all present, or a removal whose
	// members are all gone from the most advanced view, is a pure
	// re-synchronising flush: the commit re-announces that view without
	// minting a new id (members already there treat it as stale and only
	// unwedge; members behind catch up to it). The other kinds carry a
	// payload, not a membership change.
	dec.newView = dec.base
	switch r.kind {
	case gbJoin:
		if !allContained(dec.base, dec.procs) {
			dec.newView = dec.base.WithJoined(dec.procs...)
		}
	case gbLeave, gbFail:
		if anyContained(dec.base, dec.procs) {
			dec.newView = dec.base.WithRemoved(dec.procs...)
		}
	}

	dec.rebcast = reconcile(reports)
	return dec
}

// allContained reports whether every listed process is a member of the view.
func allContained(v core.View, ps []addr.Address) bool {
	for _, p := range ps {
		if !v.Contains(p) {
			return false
		}
	}
	return true
}

// anyContained reports whether any listed process is a member of the view.
func anyContained(v core.View, ps []addr.Address) bool {
	for _, p := range ps {
		if v.Contains(p) {
			return true
		}
	}
	return false
}

// reconcile merges the member sites' reports into what the commit
// re-disseminates: every message delivered at some reporting site but not at
// all of them, so that every survivor delivers it before the GBCAST point. An
// ABCAST travels with the holder's number for it, and the sites that missed it
// deliver it in that place (applyRebcastLocked). Nothing else is decided: a
// numbered ABCAST some site holds was delivered there on arrival, and a
// submission no site delivered is still its submitter's, which sends it to the
// holder of the view the commit installs.
func reconcile(reports map[addr.SiteID]pendingReport) pendingReport {
	count := make(map[core.MsgID]int)
	first := make(map[core.MsgID]recentWire)
	for _, rep := range reports {
		for _, rc := range rep {
			if count[rc.ID]++; count[rc.ID] == 1 {
				first[rc.ID] = rc
			}
		}
	}
	var out pendingReport
	for id, n := range count {
		if n < len(reports) {
			out = append(out, first[id])
		}
	}
	return out
}
