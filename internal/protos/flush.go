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
	rebcast    pendingReport // what to force, discard, fence and re-disseminate before the GBCAST point
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

	dec.rebcast = reconcile(reports, r.kind == gbFail, dec.procs)
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

// reconcile merges the member sites' pending reports into the rebroadcast
// instructions carried by the commit. Every in-flight ABCAST the reports
// surface is resolved to one side of the GBCAST point (the paper treats
// in-progress ABCASTs as part of the flushed state):
//
//   - committed at any member: force-commit everywhere at the final priority
//     (the "all" branch of the atomicity rule);
//   - already delivered at some member but still pending uncommitted
//     elsewhere: complete everywhere at the final priority the delivering
//     site recorded (carried by its Recent report entry);
//   - uncommitted from a failed sender: discard everywhere (the "none"
//     branch);
//   - uncommitted from a live sender, present in every report: complete —
//     every member site has proposed, so the maximum reported priority
//     dominates every proposal and the flush commits it before the view
//     change at every site (the initiator's own round is retired when the
//     commit reaches it);
//   - uncommitted from a live sender, missing from some report: fence — the
//     message cannot be completed on this side of the view change, so every
//     site discards its phase-1 state and the initiator restarts the
//     protocol under the new view, delivering it after the GBCAST point at
//     every site.
func reconcile(reports map[addr.SiteID]pendingReport, removingFailed bool, removed []addr.Address) pendingReport {
	type abAgg struct {
		committed bool
		priority  uint64 // final priority when committed
		maxProp   uint64 // highest proposed priority when uncommitted
		packet    []byte
		seen      int  // member sites whose report lists the entry
		initiator bool // some reporting site still holds the initiator round
	}
	abs := make(map[core.MsgID]*abAgg)
	recentCount := make(map[core.MsgID]int)
	recentPkt := make(map[core.MsgID][]byte)
	recentFinal := make(map[core.MsgID]uint64)
	removedSet := make(map[addr.Address]bool)
	for _, p := range removed {
		removedSet[p.Base()] = true
	}

	for _, rep := range reports {
		for _, a := range rep.Abcasts {
			agg := abs[a.ID]
			if agg == nil {
				agg = &abAgg{}
				abs[a.ID] = agg
			}
			agg.seen++
			if a.Init {
				agg.initiator = true
			}
			if a.Packet != nil && agg.packet == nil {
				agg.packet = a.Packet
			}
			if a.Committed {
				agg.committed = true
				if a.Priority > agg.priority {
					agg.priority = a.Priority
				}
			} else if a.Priority > agg.maxProp {
				agg.maxProp = a.Priority
			}
		}
		for _, r := range rep.Recent {
			recentCount[r.ID]++
			if r.Packet != nil && recentPkt[r.ID] == nil {
				recentPkt[r.ID] = r.Packet
			}
			if r.Priority > recentFinal[r.ID] {
				recentFinal[r.ID] = r.Priority
			}
		}
	}

	var out pendingReport
	nSites := len(reports)
	for id, agg := range abs {
		switch {
		case agg.committed:
			out.Abcasts = append(out.Abcasts, abPendingWire{
				ID: id, Committed: true, Priority: agg.priority, Packet: agg.packet,
			})
		case recentFinal[id] != 0:
			// Delivered at some member site, still an uncommitted pending
			// entry here and there: complete it everywhere at the exact
			// final priority the delivering site used (its commit record
			// travelled in the Recent report). Left unresolved, the entry
			// would block completions driven below until its own in-flight
			// commit thawed — after the view change, on the wrong side.
			out.Abcasts = append(out.Abcasts, abPendingWire{
				ID: id, Committed: true, Priority: recentFinal[id], Packet: agg.packet,
			})
		case removingFailed && removedSet[id.Sender.Base()]:
			// The sender failed and no member learned a final priority:
			// the "none" branch of the atomicity rule — discard everywhere.
			out.Abcasts = append(out.Abcasts, abPendingWire{ID: id, Committed: false})
		case agg.seen == nSites && agg.packet != nil:
			// Complete: drive the in-flight ABCAST to commit before the view
			// change. Every report contributed a proposal, so the maximum
			// dominates anything a member has used or seen.
			out.Abcasts = append(out.Abcasts, abPendingWire{
				ID: id, Committed: true, Priority: agg.maxProp, Packet: agg.packet,
			})
		case recentCount[id] == 0 && agg.initiator:
			// Fence behind the new view — but only while some reporting site
			// still holds the initiator round, which guarantees the restart
			// that re-delivers the message. Without that guarantee the fence
			// discard could lose a message outright (e.g. one delivered at a
			// site whose bounded recent buffer has since evicted it, with
			// the commit still in flight here); such a straggler is left
			// pending for its own commit or the re-solicitation watchdog to
			// resolve. A message some member already delivered is likewise
			// never fenced: the Recent re-dissemination carries it to
			// everyone before the view change instead.
			out.Fenced = append(out.Fenced, id)
		}
	}
	// A message delivered at some member sites but not all of them must be
	// re-disseminated so every survivor delivers it before the GBCAST point —
	// an ABCAST at the final it was delivered at, so it takes the same place in
	// every site's order.
	for id, count := range recentCount {
		if count < nSites {
			out.Recent = append(out.Recent, recentWire{ID: id, Packet: recentPkt[id], Priority: recentFinal[id]})
		}
	}
	return out
}
