package protos

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/events"
)

// gbWork is one GBCAST to execute: a membership change (join, leave,
// failure) or a user-level GBCAST (including configuration updates), as the
// request that asked for it. The group coordinator serializes these per group
// and runs the two-phase flush/commit protocol for each.
type gbWork struct {
	gbPacket             // the request; its call is the one the answer goes to
	replyTo  addr.SiteID // requester site (this one for its own request)
}

// gbRound is the GBCAST a coordinator's group copy is running (groupState.round):
// phase 1 as the member sites answer, and what it takes to ask the silent ones again.
type gbRound struct {
	flushRound               // what decideFlush is handed: the acks and xfers so far
	req        gbWork        // the request the round runs
	call       int64         // the prepare's call id, which every ack carries back
	prepare    []byte        // the prepare, encoded once
	silent     []addr.SiteID // the member sites asked that have not answered
	tries      int           // the prepares sent to the silent sites
	deadline   uint64        // the scan tick at which they are asked again
}

// handleGbRequestLocked queues a request addressed to this site, a peer's or
// its own, in its role as the group's (acting) coordinator, and runs the
// group's rounds. Caller holds d.mu.
func (d *Daemon) handleGbRequestLocked(from addr.SiteID, p *gbPacket) {
	w := gbWork{gbPacket: *p, replyTo: from}
	w.group = p.group.Base()
	gs, ok := d.groups[w.group]
	switch {
	case d.closed:
		d.answerLocked(from, p.call, ptError, answer{err: ErrClosed})
	case !ok:
		d.answerLocked(from, p.call, ptError, answer{err: ErrUnknownGroup})
	default:
		if gs.round != nil || len(gs.gbQueue) > 0 {
			w.view = core.View{} // an ack it carries counts only in a round this hold opens
		}
		gs.gbQueue = append(gs.gbQueue, w)
		d.runRoundsLocked(gs)
	}
}

// runRoundsLocked moves a copy's GBCAST rounds as far as they go now; nothing
// else moves one. It admits the head of the queue, sends the silent sites the
// prepare at each passed deadline, three tries a CallTimeout apart (a lost
// exchange read as a site death could mint a view id an unreached member
// already holds with other contents), then decides the round and takes up the
// next. A commit that drops the copy drops its queue, as a crashed
// coordinator's, and the requesters fail over. Caller holds d.mu.
func (d *Daemon) runRoundsLocked(gs *groupState) {
	for d.groups[gs.view.Group.Base()] == gs {
		switch r := gs.round; {
		case r == nil && len(gs.gbQueue) == 0:
			return
		case r == nil:
			gs.round, gs.gbQueue = d.openRoundLocked(gs, gs.gbQueue[0]), gs.gbQueue[1:]
		case len(r.silent) > 0 && d.tick < r.deadline:
			return
		case len(r.silent) > 0 && r.tries < 3:
			r.tries, r.deadline = r.tries+1, d.deadlineLocked(d.cfg.CallTimeout)
			d.fanoutRaw(r.silent, r.prepare)
			return
		default:
			gs.round = nil
			d.decideRoundLocked(r)
		}
	}
}

// openRoundLocked admits a request and opens its round: it prepares this
// site's copy first (the coordinator's, a member site by the acting rule) and
// lists the other unsuspected member sites of the view to be sent the prepare.
// A request it need not run is answered at once, and opens no round (nil).
// Caller holds d.mu.
func (d *Daemon) openRoundLocked(gs *groupState, w gbWork) *gbRound {
	if !gs.phase.primary() {
		// This copy of the group is stranded in a minority partition: no
		// view may be installed and no GBCAST committed until the merge
		// protocol rejoins the primary.
		d.answerLocked(w.replyTo, w.call, ptError, answer{err: ErrNonPrimary})
		return nil
	}
	// Only the acting coordinator by this site's view and suspicions runs a
	// request; a requester is the authority on the failures of its own processes.
	acting := gs.view
	for _, p := range w.procs {
		if w.kind == gbFail && p.Site == w.replyTo {
			acting = acting.WithRemoved(p)
		}
	}
	if d.actingCoordinator(acting).Site != d.site {
		d.answerLocked(w.replyTo, w.call, ptError, answer{err: errNotCoordinator})
		return nil
	}
	// Answer with the current view, instead of executing the protocol, a
	// request that already committed — typically under a previous
	// coordinator that died after sending its commit but before answering
	// the requester — and a membership change that is a no-op here (a
	// failure already handled, a re-submitted join whose commit reached this
	// site). A forced takeover flush is exempt from the second: it must run
	// the full protocol precisely because other members may not have seen
	// the commit that made it a no-op here.
	answered := w.reqID != 0 && gs.marks.Committed(w.reqID)
	if !answered {
		d.counters.GBCASTs++
		switch {
		case w.force:
		case w.kind == gbFail, w.kind == gbLeave:
			answered = !anyContained(gs.view, w.procs)
		case w.kind == gbJoin:
			answered = allContained(gs.view, w.procs)
		}
	}
	if answered {
		d.answerLocked(w.replyTo, w.call, ptGbDone, answer{gb: &gbPacket{view: gs.view.Clone()}})
		return nil
	}

	// A seal's prepare names the request id each member site votes on from its
	// first-hand knowledge, a failure removal its targets, whose claimed deaths
	// each member site corroborates or disputes for the processes it hosts.
	d.nextCall++
	prepare := gbPacket{call: d.nextCall, group: w.group, sealTarget: w.sealTarget}
	if w.kind == gbFail {
		prepare.procs = w.procs
	}
	r := &gbRound{req: w, call: prepare.call}
	r.prepare, _ = prepare.encode(ptGbPrepare) // no payload: it cannot fail
	r.kind, r.procs, r.view, r.self = w.kind, w.procs, gs.view.Clone(), d.site
	own := d.prepareLocalLocked(w.group, prepare.procs, prepare.sealTarget, true)
	r.acks, r.silent = make(map[addr.SiteID]prepareAck), []addr.SiteID{d.site}
	r.hear(d.site, &own) // filed as a peer's ack is
	for _, s := range r.view.SitesOf() {
		if s != d.site && !d.suspected[s] {
			r.silent = append(r.silent, s)
		}
	}
	if w.view.ID == r.view.ID { // a request that carries no ack has view 0
		r.hear(w.replyTo, &w.gbPacket) // the requester's site's ack, if it is still asked
	}
	return r
}

// handleGbAckLocked files a member site's answer to a prepare with the round
// that sent it, found by the prepare's call id, and runs the round on. An ack
// from a site the round did not ask or has heard from, or of a round since
// decided, changes nothing; an answer to an earlier try counts, as the site is
// wedged still (its watchdog outlasts the tries). Caller holds d.mu.
func (d *Daemon) handleGbAckLocked(from addr.SiteID, ack *gbPacket) {
	for _, gs := range d.groups {
		if r := gs.round; r != nil && r.call == ack.call && r.hear(from, ack) {
			d.runRoundsLocked(gs)
		}
	}
}

// hear takes a site off the round's silent list, and files its ack (nil when
// the site is counted out), if the round was waiting for it.
func (r *gbRound) hear(site addr.SiteID, ack *gbPacket) bool {
	i := slices.Index(r.silent, site)
	if i < 0 {
		return false
	}
	r.silent = slices.Delete(r.silent, i, i+1)
	if ack != nil {
		r.acks[site] = prepareAck{report: ack.report, view: ack.view, dead: ack.dead, vote: ack.outcome}
		r.xfers = append(r.xfers, ack.xfers...)
	}
	return true
}

// decideRoundLocked ends a round whose member sites have answered or are
// counted out: decideFlush (the rules) turns what it collected into the
// commit, which is committed and its requester answered. Caller holds d.mu.
func (d *Daemon) decideRoundLocked(r *gbRound) {
	w := &r.req
	dec := decideFlush(r.flushRound)
	if dec.nonPrimary {
		// The copy goes read-only, and so do those of the member sites whose
		// acks it holds: the gbNonPrimary notice ends the flush (held reads
		// drain) without installing a view.
		d.commitGbLocked(slices.Collect(maps.Keys(r.acks)), &gbPacket{group: w.group, kind: gbNonPrimary})
		d.answerLocked(w.replyTo, w.call, ptError, answer{err: ErrNonPrimary})
		return
	}

	// Phase 2: commit at every member site of old, base, and new views. A
	// seal's commit and answer carry the verdict.
	commit := &gbPacket{group: w.group, kind: w.kind, procs: dec.procs, view: dec.newView, report: dec.rebcast,
		xfers: dec.xfers, reqID: w.reqID, wantState: w.wantState, entry: w.entry, sender: w.sender, payload: w.payload}
	done := &gbPacket{view: dec.newView}
	if w.kind == gbSeal && w.sealTarget != 0 {
		commit.sealTarget, commit.outcome, done.outcome = w.sealTarget, dec.outcome, dec.outcome
	}
	d.commitGbLocked(unionSites(dec.newView, dec.base, r.view), commit)

	if dec.newView.ID > r.view.ID {
		d.bus.Publish(events.Event{Kind: events.ViewCommitted, Group: w.group, View: dec.newView.ID})
	}
	d.answerLocked(w.replyTo, w.call, ptGbDone, answer{gb: done})
}

// commitGbLocked commits a GBCAST (or a notice) on this site's own account:
// encoded once, fanned out to the listed member sites and applied here.
// Caller holds d.mu.
func (d *Daemon) commitGbLocked(sites []addr.SiteID, commit *gbPacket) {
	if raw, err := commit.encode(ptGbCommit); err == nil {
		d.fanoutRaw(sites, raw)
	}
	d.applyGbCommitLocked(commit)
}

// unionSites lists each member site of the given views once, in the order the
// views rank their members, the oldest member's site first: a commit fans out
// in the same order every run.
func unionSites(views ...core.View) (sites []addr.SiteID) {
	for _, v := range views {
		for _, m := range v.Members {
			if !slices.Contains(sites, m.Site) {
				sites = append(sites, m.Site)
			}
		}
	}
	return sites
}

// prepareLocalLocked is phase 1 at this site: it feeds the prepare to the group
// copy's lifecycle (a primary copy wedges) and returns the site's answer, the
// ack it sends. targets are the failure removal's processes and sealTarget the
// request id an outcome-settling flush asks about (zero values when the flush
// is neither). A member site vouches only for the targets it hosts; the
// coordinator (own) also counts every process it has recorded as failed. The
// ack lists the site's members still awaiting their state, the one record of a
// pending transfer. Caller holds d.mu.
func (d *Daemon) prepareLocalLocked(gid addr.Address, targets []addr.Address, sealTarget int64, own bool) gbPacket {
	var ack gbPacket
	for _, pr := range targets {
		if pr.Site == d.site {
			if lp, ok := d.procs[pr.Base()]; ok && lp.alive && !d.failedProcs[pr.Base()] {
				continue
			}
		} else if !own || !d.failedProcs[pr.Base()] {
			continue
		}
		ack.dead = append(ack.dead, pr.Base())
	}
	gs, ok := d.groups[gid]
	if !ok {
		return ack
	}
	d.step(gs, inPrepare)
	ack.report, ack.view = d.buildReportLocked(gs), gs.view.Clone()
	if sealTarget != 0 {
		ack.outcome = gs.marks.Vote(sealTarget)
	}
	for m, ms := range gs.members {
		if ms.awaitingState {
			ack.xfers = append(ack.xfers, m)
		}
	}
	return ack
}

// buildReportLocked lists the copy's recent deliveries, each as the bytes it
// travelled as, for a GBCAST flush to re-disseminate to the sites that missed
// it. Caller holds d.mu.
func (d *Daemon) buildReportLocked(gs *groupState) pendingReport {
	keys := gs.recent.Keys()
	rep := make(pendingReport, len(keys))
	for i, id := range keys {
		raw, _ := gs.recent.Get(id)
		rep[i] = recentWire{ID: id, Packet: raw}
	}
	return rep
}

// handleGbPrepareLocked processes phase 1 at a non-coordinator member site.
// The ack carries this site's current view alongside its pending report so
// that a coordinator taking over mid-protocol can base the new view on the
// most advanced copy any survivor holds. Caller holds d.mu.
func (d *Daemon) handleGbPrepareLocked(from addr.SiteID, p *gbPacket) {
	if d.suspected[from] {
		// A straggling prepare from a coordinator already declared failed
		// (e.g. held in the network across the crash): wedging for it would
		// freeze the group with nobody left to run the commit that
		// unwedges it. The takeover flush owns the group now.
		return
	}
	ack := d.prepareLocalLocked(p.group.Base(), p.procs, p.sealTarget, false)
	d.answerLocked(from, p.call, ptGbAck, answer{gb: &ack})
}

// applyGbCommitLocked installs the effect of a GBCAST at this site:
// re-delivers reconciled messages, applies the membership change or delivers
// the user payload, notifies local members, and ends the flush. Caller holds
// d.mu.
func (d *Daemon) applyGbCommitLocked(p *gbPacket) {
	gid, kind, newView, reqID := p.group.Base(), p.kind, p.view, p.reqID

	gs, hosted := d.groups[gid]
	switch {
	case kind == gbNonPrimary:
		// The minority coordinator's notice: this partition failed to reach
		// a majority. The copy goes read-only (which ends the flush, so held
		// reads drain) and waits for the merge protocol.
		if hosted {
			d.step(gs, inNonPrimary)
		}
		return
	case kind == gbResume:
		// Total-wedge recovery: no partition held a majority, nothing can
		// have committed past the last agreed view anywhere, and the resume
		// initiator verified the reachable copies still agree on it — so a
		// non-primary copy holding that view simply becomes primary again.
		if hosted && newView.ID == gs.view.ID {
			d.step(gs, inResume)
		}
		return
	case hosted && !gs.phase.primary():
		// A commit reaching a non-primary copy comes from the primary
		// partition (typically a pre-partition packet retransmitted across
		// the heal). It must not be applied piecemeal — this copy's state is
		// speculative and will be discarded wholesale — but its arrival
		// proves the primary is reachable again, so it starts a merge attempt.
		d.mergeLocked(gs)
		return
	}
	hostsNewMember := false
	for _, m := range newView.Members {
		if m.Site == d.site {
			if _, ok := d.procs[m.Base()]; ok {
				hostsNewMember = true
			}
		}
	}
	// Members listed at this site that this daemon does not know are ghosts
	// of a previous incarnation: they joined (or merged back) moments before
	// the site restarted, and nobody else can tell they are gone — process
	// failures are detected locally, and the restarted site is heard from, so
	// no timeout will ever fire for them. Request their removal.
	ghosts := d.ghostMembersLocked(newView)
	if !hosted {
		if !hostsNewMember {
			// We host nobody in this group: just refresh the cached view.
			d.cacheRemoteViewLocked(newView)
			d.removeGhostsLocked(gid, ghosts)
			return
		}
		if known, ok := d.remoteViews[gid]; ok && newView.ID < known.ID {
			// A pre-partition commit retransmitted across a heal, arriving
			// after the merge discarded this site's copy: the primary has
			// long moved past this view. Installing it would resurrect the
			// stale membership (and swallow the merge's pending join with its
			// state receiver); the merge's own join commit is on its way.
			return
		}
		// The view itself is installed by applyViewChangeLocked below; the
		// stub starts at view id 0 so the commit's view is never mistaken
		// for already-installed.
		gs = newGroupState(core.View{Group: gid, Name: newView.Name})
		d.groups[gid] = gs
		if newView.Name != "" {
			d.nameCache[newView.Name] = gid
		}
	}

	// Record the request id and detect re-executions: a commit for a
	// request this site already applied (re-sent by a coordinator that died
	// mid-fan-out, or re-run by its successor) must not deliver its user
	// payload a second time. View changes are deduplicated by view id.
	dupReq := reqID != 0 && gs.marks.Committed(reqID)
	if reqID != 0 {
		gs.marks.Record(reqID)
	}

	// Step 1: what some member delivered is delivered here too, before the
	// GBCAST point.
	d.applyRebcastLocked(gs, p.report)

	// Step 2: apply the membership change or deliver the user payload.
	var wrong []wrongRemoval
	switch kind {
	case gbUser:
		if p.payload != nil && !dupReq {
			for _, ms := range gs.members {
				d.counters.Delivered++
				d.enqueueMember(ms, queued{entry: p.entry, m: d.buildDelivery(p.payload, p.sender, gs.view.Group, gs.view.ID, GBCAST)})
			}
		}
	case gbJoin, gbLeave, gbFail, 0:
		wrong = d.applyViewChangeLocked(gs, newView, kind, p.procs, p.wantState, p.xfers)
	case gbSeal:
		if p.sealTarget != 0 {
			gs.marks.Seal(p.sealTarget, p.outcome == voteCommitted)
		}
	}

	// Step 3: the flush is over, and what it held back is taken up again.
	// Then this site's submissions the flush did not deliver go to the holder
	// the view names, once more: the commit may have released one there while
	// the holder could stamp nothing, or dropped one its view left waiting. A
	// site left with no members drops the group state entirely first, so what
	// it held back finds no copy (its submissions go with it, as a failed
	// sender's would); its flush ends as the commit's all the same.
	if len(gs.members) == 0 {
		d.dropGroupLocked(gid, inCommit)
		d.remoteViews[gid] = newView.Clone()
	} else {
		d.step(gs, inCommit)
		d.resubmitLocked(gs)
	}

	d.removeGhostsLocked(gid, ghosts)
	for _, w := range wrong {
		// The member rejoins through the ordinary join machinery, pulling
		// fresh state if it has a receiver.
		d.rejoinLocked(gid, w.proc, &rejoin{recv: w.recv})
	}
}

// applyRebcastLocked delivers what a commit re-disseminates that this site
// missed, skipping anything already delivered here. A packet travels in the
// commit as the bytes it was sent as and is decoded here, to be delivered. The
// list comes in no useful order — reconcile builds it by ranging over a map —
// so a packet of the installed view, a CBCAST or an ABCAST alike, waits in the
// causal queue for its predecessors, which the list also holds (one whose
// predecessor has left every site's recent log waits until the view goes).
// Only a packet of another view — closed, or one a lagging copy never
// installed — is handed straight over: its timestamp means nothing to this
// view's clock, and handleDataLocked turns such a packet away from now on.
// Caller holds d.mu.
func (d *Daemon) applyRebcastLocked(gs *groupState, rec pendingReport) {
	for _, rc := range rec {
		if _, have := gs.recent.Get(rc.ID); have {
			continue
		}
		switch pkt, ok := parseDataPacket(rc.Packet); {
		case !ok:
		case pkt.view == gs.view.ID:
			d.processCbcastLocked(gs, pkt)
		default:
			d.releaseLocked(gs, pkt)
		}
	}
}

// ghostMembersLocked returns the view members listed at this site that this
// daemon does not host — processes of a previous incarnation of the site.
// Caller holds d.mu.
func (d *Daemon) ghostMembersLocked(v core.View) []addr.Address {
	var ghosts []addr.Address
	for _, m := range v.Members {
		if m.Site != d.site {
			continue
		}
		if _, ok := d.procs[m.Base()]; !ok {
			ghosts = append(ghosts, m.Base())
		}
	}
	return ghosts
}

// removeGhostsLocked files the removal of dead previous-incarnation members
// hosted at this site. Caller holds d.mu.
func (d *Daemon) removeGhostsLocked(gid addr.Address, ghosts []addr.Address) {
	if len(ghosts) == 0 {
		return
	}
	for _, g := range ghosts {
		d.failedProcs[g] = true
	}
	d.requestRemovalLocked(gid, ghosts, false)
}

// wrongRemoval records a local, live member that a failure view removed —
// evidence of a stale suspicion — so the caller can file its rejoin once the
// commit has been applied.
type wrongRemoval struct {
	proc addr.Address
	recv func(block []byte, last bool)
}

// applyViewChangeLocked installs a new membership view and returns any
// local, live members the change wrongly removed (the caller files their
// rejoins). xfers are the members the flush found possibly awaiting
// a state transfer. Caller holds d.mu.
func (d *Daemon) applyViewChangeLocked(gs *groupState, newView core.View, kind int64, procs []addr.Address, wantState bool, xfers addr.List) []wrongRemoval {
	if gs.view.ID != 0 && newView.ID <= gs.view.ID {
		// Stale or duplicate commit: a view with this id (or a later one)
		// is already installed. Re-applying it would re-clone the view and
		// re-invoke every member's deliverView callback — the retransmitted
		// commit only needs its unwedge side effect, which the caller
		// performs regardless.
		return nil
	}
	old := gs.view
	gs.prevView = old
	gs.view = newView.Clone()
	d.counters.ViewChanges++
	d.bus.Publish(events.Event{
		Kind: events.ViewInstalled, Group: gs.view.Group, View: gs.view.ID,
		Detail: fmt.Sprintf("%d members", len(gs.view.Members)),
	})

	var wrong []wrongRemoval
	if kind == gbFail {
		for _, pr := range procs {
			if pr.Site == d.site {
				if lp, ok := d.procs[pr.Base()]; ok && lp.alive {
					// This site hosts the removed process and it is alive:
					// the removal rested on a stale failure belief (a false
					// suspicion, or a partition this copy never noticed).
					// Do not blacklist its traffic; rejoin it instead.
					var recv func(block []byte, last bool)
					if ms, ok := gs.members[pr.Base()]; ok {
						recv = ms.stateRecv
					}
					wrong = append(wrong, wrongRemoval{proc: pr.Base(), recv: recv})
					continue
				}
			}
			d.failedProcs[pr.Base()] = true
		}
	}
	// Any process listed in the new view is alive by the view agreement:
	// clear stale failure records, so a member that was presumed dead during
	// a partition and rejoins through the merge protocol is not silently
	// ignored by the receive path.
	for _, m := range newView.Members {
		delete(d.failedProcs, m.Base())
	}

	// Drop members no longer in the view.
	for a := range gs.members {
		if !newView.Contains(a) {
			delete(gs.members, a)
		}
	}
	// Add newly hosted members.
	for _, m := range newView.Members {
		if m.Site != d.site {
			continue
		}
		if _, ok := gs.members[m.Base()]; ok {
			continue
		}
		lp, ok := d.procs[m.Base()]
		if !ok || !lp.alive {
			continue
		}
		ms := &memberState{
			proc:       lp,
			joinedView: newView.ID,
		}
		// Was this an explicit join from this site with a state request?
		key := joinKey{gs.view.Group, m.Base()}
		if recv, ok := d.pendingJoin[key]; ok {
			ms.stateRecv = recv
			delete(d.pendingJoin, key)
		}
		if wantState && !old.Contains(m) && addr.List(procs).Contains(m) {
			// Its provider ships under this view's id; a block of an
			// earlier attempt is a straggler from before the join.
			ms.awaitingState, ms.xferID = true, uint64(newView.ID)
		}
		gs.members[m.Base()] = ms
	}
	// Reset the per-view ordering state to the new view's size. A copy left
	// with no members is about to be dropped and is spared the new clock.
	if len(gs.members) > 0 {
		gs.causal.InstallView(-1, newView.Size())
	}

	// Notify every local member of the new view, in order relative to
	// message deliveries.
	v := newView.Clone()
	for _, ms := range gs.members {
		if ms.proc.deliverView == nil {
			continue
		}
		cb := ms.proc.deliverView
		d.enqueueMember(ms, queued{fn: func() { cb(v) }})
	}

	// State transfer: the oldest member ships the state to the joiners that
	// asked for it. Provider fail-over: if instead this change replaced the
	// group's oldest member (the provider), the new oldest member re-ships the
	// state from the beginning to the members the flush found possibly
	// awaiting it, each site's word on its own; the joiner discards any
	// partial transfer from the dead provider (the blocks carry the attempt
	// id) so it never assembles a mixed state, and a member that is not
	// awaiting state drops the blocks.
	switch {
	case kind == gbJoin && wantState:
		if !addr.List(procs).Contains(newView.Coordinator()) {
			d.shipStateLocked(gs, procs)
		}
	case kind != gbJoin && old.Size() > 0 && old.Coordinator().Base() != newView.Coordinator().Base():
		var joiners []addr.Address
		for _, j := range xfers {
			if newView.Contains(j) {
				joiners = append(joiners, j)
			}
		}
		if len(joiners) > 0 {
			d.shipStateLocked(gs, joiners)
		}
	}
	return wrong
}

// shipStateLocked has the group's oldest member, if this site hosts it, send
// the group state to the joiners. The capture is a call on that member's
// queue, run after the handlers of the deliveries that precede the view just
// installed and before any after it: a cut. Caller holds d.mu.
func (d *Daemon) shipStateLocked(gs *groupState, joiners []addr.Address) {
	ms, ok := gs.members[gs.view.Coordinator().Base()]
	if !ok {
		return
	}
	gid, prov, xid := gs.view.Group, ms.stateProv, uint64(gs.view.ID)
	d.enqueue(ms.proc, queued{fn: func() { d.sendStateBlocks(gid, joiners, prov, xid) }})
}

// sendStateBlocks captures the group state from the provider and ships it to
// each joiner's site, stamping every block with the transfer attempt id (the
// view id the provider ships under) so a joiner can tell a fail-over restart
// from the original provider's stragglers. Runs as a call on the providing
// member's queue.
func (d *Daemon) sendStateBlocks(gid addr.Address, joiners []addr.Address, provider func() [][]byte, xferID uint64) {
	blocks := [][]byte{nil} // an empty state is one final block with no data
	if provider != nil {
		if b := provider(); len(b) > 0 {
			blocks = b
		}
	}
	for _, j := range joiners {
		for i, b := range blocks {
			h := stateHeader{group: gid, joiner: j, xferID: xferID, last: i == len(blocks)-1}
			_ = d.sendRaw(j.Site, h.encode(b))
		}
	}
}

// handleStateBlockLocked buffers a state-transfer block for a joining member
// and, on the final block, delivers the complete state to the receiver and
// releases the deliveries held while the transfer was in progress. Nothing is
// announced: a member no longer awaiting state is the record the next flush
// asks for. Buffering until the final block (rather than streaming) is what
// makes provider fail-over safe: a transfer restarted by the new oldest member
// simply discards the dead provider's partial buffer instead of handing the
// application a mix of two providers' blocks. data is the block as it
// arrived, a capped range of the frame nothing else refers to: it is filed
// and handed to the StateReceiver, which may write it, as it is. Caller holds
// d.mu.
func (d *Daemon) handleStateBlockLocked(h stateHeader, data []byte) {
	gid, target, xid := h.group, h.joiner, h.xferID
	gs, ok := d.groups[gid.Base()]
	if !ok {
		return
	}
	ms, ok := gs.members[target.Base()]
	if !ok || !ms.awaitingState {
		// The member never asked for state, or its transfer already
		// completed: a duplicate fail-over re-send changes nothing.
		return
	}
	if xid < ms.xferID {
		return // straggler from a provider that has been failed over
	}
	if xid > ms.xferID {
		// A new provider restarted the transfer: drop the partial buffer.
		ms.xferID = xid
		ms.xferBuf = nil
	}
	if len(data) > 0 {
		ms.xferBuf = append(ms.xferBuf, data)
	}
	if !h.last {
		return
	}

	// Final block: hand the complete state to the receiver in order, then
	// the held deliveries behind it.
	recv := ms.stateRecv
	blocks := ms.xferBuf
	ms.xferBuf = nil
	ms.awaitingState = false
	held := ms.held
	ms.held = nil
	if recv != nil {
		if len(blocks) == 0 {
			d.enqueue(ms.proc, queued{fn: func() { recv(nil, true) }})
		}
		for i, b := range blocks {
			lastBlock := i == len(blocks)-1
			d.enqueue(ms.proc, queued{fn: func() { recv(b, lastBlock) }})
		}
	}
	for _, q := range held {
		d.enqueue(ms.proc, q)
	}
}

// handleSiteFailure reacts to the failure detector declaring a site dead. Calls
// in flight to it are ended first (endCallsLocked), so their callers re-route
// to a successor instead of waiting out the call timeout, and a round waiting
// for its answer counts it out last. If this daemon hosts the acting
// coordinator of a group with members at the dead site, it files their
// removal, whose flush carries to every survivor what any of them delivered,
// driven once the site is suspected. When the dead site hosted the group's
// previous acting coordinator, the removal is forced: the old coordinator may
// have died mid-flush — members wedged by its prepare, its commit delivered to
// only some of them, its gbQueue lost — so the successor must re-run the full
// wedge/flush even if the membership change itself turns out to be a no-op at
// this site. Requests orphaned at the dead coordinator are re-submitted by
// their requesters (a request's next try carries its stable id once the
// in-flight exchange has ended), and the commit-time dedupe keeps re-execution
// idempotent.
func (d *Daemon) handleSiteFailure(s addr.SiteID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bus.Publish(events.Event{Kind: events.SiteDown, Peer: s})
	d.endCallsLocked(errSiteFailed, func(c *pendingCall) bool { return c.site == s })
	for gid, gs := range d.groups {
		var atSite []addr.Address
		for _, m := range gs.view.Members {
			if m.Site == s {
				atSite = append(atSite, m)
			}
		}
		force := d.actingCoordinator(gs.view).Site == s // s is marked suspected below
		if len(atSite) == 0 {
			// No members of the dead site in our current view — but it may
			// have coordinated the change that removed them, and died before
			// its commit reached every member. If it hosted members one view
			// ago, run a forced re-sync flush anyway so any member still
			// holding (or wedged under) the previous view catches up.
			for _, m := range gs.prevView.Members {
				if m.Site == s {
					atSite = append(atSite, m)
					force = true
					break
				}
			}
			if len(atSite) == 0 {
				continue
			}
		}
		if d.actingCoordinator(gs.view.WithRemoved(atSite...)).Site != d.site { // the successor
			continue
		}
		if force {
			// This site is stepping in for a coordinator that died
			// mid-protocol (or mid-fan-out): the forced flush finishes the
			// dead coordinator's work.
			d.bus.Publish(events.Event{Kind: events.Takeover, Group: gid, Peer: s})
		}
		d.requestRemovalLocked(gid, atSite, force)
	}
	d.suspected[s] = true
	for _, gs := range d.groups {
		if r := gs.round; r != nil && r.hear(s, nil) {
			d.runRoundsLocked(gs)
		}
	}
	d.driveLocked()
}
