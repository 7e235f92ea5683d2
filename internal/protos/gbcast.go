package protos

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"

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

// handleGbRequestLocked queues a request addressed to this site, a peer's or
// its own, in its role as the group's (acting) coordinator, and starts the
// group's worker if it is not already running. Caller holds d.mu.
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
		gs.gbQueue = append(gs.gbQueue, w)
		if !gs.gbBusy {
			gs.gbBusy = true
			go d.runGbWorker(w.group)
		}
	}
}

// runGbWorker drains one group's GBCAST queue.
func (d *Daemon) runGbWorker(gid addr.Address) {
	for {
		d.mu.Lock()
		gs, ok := d.groups[gid]
		if !ok || len(gs.gbQueue) == 0 {
			if ok {
				gs.gbBusy = false
			}
			d.mu.Unlock()
			return
		}
		w := gs.gbQueue[0]
		gs.gbQueue = gs.gbQueue[1:]
		d.mu.Unlock()
		d.executeGb(&w)
	}
}

// executeGb runs the two-phase GBCAST protocol for one unit of work: admit,
// collect phase 1, decide (decideFlush — the rules), commit.
func (d *Daemon) executeGb(w *gbWork) {
	d.mu.Lock()
	gs, ok := d.groups[w.group]
	if !ok {
		d.mu.Unlock()
		d.gbReply(w, ptError, answer{err: ErrUnknownGroup})
		return
	}
	if !gs.phase.primary() {
		// This copy of the group is stranded in a minority partition: no
		// view may be installed and no GBCAST committed until the merge
		// protocol rejoins the primary.
		d.mu.Unlock()
		d.gbReply(w, ptError, answer{err: ErrNonPrimary})
		return
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
		d.mu.Unlock()
		d.gbReply(w, ptError, answer{err: errNotCoordinator})
		return
	}
	oldView := gs.view.Clone()
	// Answer with the current view, instead of executing the protocol, a
	// request that already committed — typically under a previous
	// coordinator that died after sending its commit but before answering
	// the requester — and a membership change that is a no-op here (a
	// failure already handled, a re-submitted join whose commit reached this
	// site). A forced takeover flush is exempt from the second: it must run
	// the full protocol precisely because other members may not have seen
	// the commit that made it a no-op here.
	answered := w.reqID != 0 && gs.marks.Committed(w.reqID)
	var seq uint64
	if !answered {
		gs.gbSeq++
		seq = gs.gbSeq
		d.counters.GBCASTs++
		switch {
		case w.force:
		case w.kind == gbFail, w.kind == gbLeave:
			answered = !anyContained(oldView, w.procs)
		case w.kind == gbJoin:
			answered = allContained(oldView, w.procs)
		}
	}
	d.mu.Unlock()
	if answered {
		d.gbReply(w, ptGbDone, answer{gb: &gbPacket{view: oldView}})
		return
	}

	acks := d.collectAcks(w, seq, oldView)
	dec := decideFlush(flushRound{
		kind: w.kind, procs: w.procs, view: oldView, self: d.site, acks: acks,
	})
	if dec.nonPrimary {
		// The copy goes read-only, and so do those of the member sites whose
		// acks it holds: the gbNonPrimary notice ends the flush (held reads
		// drain) without installing a view.
		d.commitGb(slices.Collect(maps.Keys(acks)), &gbPacket{group: w.group, kind: gbNonPrimary})
		d.gbReply(w, ptError, answer{err: ErrNonPrimary})
		return
	}

	// Phase 2: commit at every member site of old, base, and new views. A
	// seal's commit and answer carry the verdict.
	commit := &gbPacket{group: w.group, seq: seq, kind: w.kind, procs: dec.procs, view: dec.newView,
		report: dec.rebcast, reqID: w.reqID, wantState: w.wantState, entry: w.entry, sender: w.sender, payload: w.payload}
	done := &gbPacket{view: dec.newView}
	if w.kind == gbSeal && w.sealTarget != 0 {
		commit.sealTarget, commit.outcome, done.outcome = w.sealTarget, dec.outcome, dec.outcome
	}
	d.commitGb(unionSites(dec.newView, dec.base, oldView), commit)

	if dec.newView.ID > oldView.ID {
		d.bus.Publish(events.Event{Kind: events.ViewCommitted, Group: w.group, View: dec.newView.ID})
	}
	d.gbReply(w, ptGbDone, answer{gb: done})
}

// commitGb commits a GBCAST (or a notice) on this site's own account: encoded
// once, fanned out to the listed member sites and applied here, in one hold.
func (d *Daemon) commitGb(sites []addr.SiteID, commit *gbPacket) {
	raw, err := commit.encode(ptGbCommit)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err == nil {
		d.fanoutRaw(sites, raw)
	}
	d.applyGbCommitLocked(commit)
}

// gbReply answers whoever asked for the GBCAST: a peer, or this site itself.
func (d *Daemon) gbReply(w *gbWork, pt byte, a answer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.answerLocked(w.replyTo, w.call, pt, a)
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

// collectAcks runs phase 1: it wedges every member site of the view and
// collects their answers — each site's pending-state report and current
// view, its word on the removal targets it hosts, and its vote in an
// outcome-settling flush. A site missing from the result did not answer.
func (d *Daemon) collectAcks(w *gbWork, seq uint64, view core.View) map[addr.SiteID]prepareAck {
	// Outcome settlement names the request id each member site reports its
	// first-hand knowledge of in its ack. Failure removals name their targets,
	// so each member site can corroborate (or dispute) the claimed deaths of
	// the processes it hosts.
	prepare := gbPacket{group: w.group, seq: seq, viewID: view.ID, sealTarget: w.sealTarget}
	if w.kind == gbFail {
		prepare.procs = w.procs
	}

	acks := make(map[addr.SiteID]prepareAck)
	var ackMu sync.Mutex
	var wg sync.WaitGroup
	for _, site := range view.SitesOf() {
		if site == d.site {
			d.mu.Lock()
			own := d.prepareLocalLocked(w.group, prepare.procs, prepare.sealTarget, true)
			d.mu.Unlock()
			ackMu.Lock()
			acks[d.site] = own
			ackMu.Unlock()
			continue
		}
		wg.Add(1)
		go func(site addr.SiteID) {
			defer wg.Done()
			// Retry a failed prepare: silently treating a transient call
			// failure as a site death would let this coordinator mint a view id
			// the unreached member may already hold with different contents (it
			// would then drop the commit as stale and diverge). A site the
			// detector declares dead fails its calls at once (call), so the
			// retries end with the suspicion, and its members are removed later.
			for attempt := 0; attempt < 3; attempt++ {
				// By value: d.call stamps a per-exchange call id into its copy.
				resp, err := d.call(site, ptGbPrepare, prepare)
				if err == nil {
					ackMu.Lock()
					acks[site] = prepareAck{report: resp.report, view: resp.view, dead: resp.dead, vote: resp.outcome}
					ackMu.Unlock()
					return
				}
			}
		}(site)
	}
	wg.Wait()
	return acks
}

// prepareLocalLocked is phase 1 at this site: it feeds the prepare to the group
// copy's lifecycle (a primary copy wedges) and returns the site's answer.
// targets are the failure removal's processes and sealTarget the request id
// an outcome-settling flush asks about (zero values when the flush is
// neither). A member site vouches only for the targets it hosts; the
// coordinator (own) also counts every process it has recorded as failed.
// Caller holds d.mu.
func (d *Daemon) prepareLocalLocked(gid addr.Address, targets []addr.Address, sealTarget int64, own bool) prepareAck {
	var ack prepareAck
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
		ack.vote = gs.marks.Vote(sealTarget)
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
		e, _ := gs.recent.Get(id)
		rep[i] = recentWire{ID: id, Packet: e.raw, Seq: e.seq}
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
	resp := &gbPacket{report: ack.report, view: ack.view, dead: ack.dead, outcome: ack.vote}
	d.answerLocked(from, p.call, ptGbAck, answer{gb: resp})
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
		// proves the primary is reachable again, so it triggers the merge.
		go d.mergeGroup(gid)
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
	prev := gs.view
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
		wrong = d.applyViewChangeLocked(gs, newView, kind, p.procs, p.wantState)
	case gbSeal:
		if p.sealTarget != 0 {
			gs.marks.Seal(p.sealTarget, p.outcome == voteCommitted)
		}
	}

	// Step 3: the flush is over. This site's submissions the flush did not
	// deliver go to the holder the view names if it is another, and what the
	// flush held back is taken up again. A site left with no members drops the
	// group state entirely first, so what it held back finds no copy (its
	// submissions go with it, as a failed sender's would); its flush ends as
	// the commit's all the same.
	if len(gs.members) == 0 {
		d.dropGroupLocked(gid, inCommit)
		d.remoteViews[gid] = newView.Clone()
	} else {
		d.resubmitLocked(gs, prev)
		d.step(gs, inCommit)
	}

	d.removeGhostsLocked(gid, ghosts)
	for _, w := range wrong {
		// The member rejoins through the ordinary join machinery, pulling
		// fresh state if it has a receiver.
		go d.rejoinOrPark(gid, w.proc, w.recv, false)
	}
}

// applyRebcastLocked delivers what a commit re-disseminates that this site
// missed, each packet the way its protocol takes into delivery, skipping
// anything already delivered here. A packet travels in the commit as the bytes
// it was sent as and is decoded here, to be delivered. The list comes in no
// useful order — reconcile builds it by ranging over a map — so the ABCASTs,
// always a suffix of the holder's stream this site did not get, are delivered
// in the holder's order (view, then number); a CBCAST of the installed view
// waits in the causal queue for its predecessors, which the list also holds
// (one whose predecessor has left every site's recent log waits until the view
// goes). Only a CBCAST of another view — closed, or one a lagging copy never
// installed — is handed straight over: its timestamp means nothing to this
// view's clock, and handleDataLocked turns such a packet away from now on.
// Caller holds d.mu.
func (d *Daemon) applyRebcastLocked(gs *groupState, rec pendingReport) {
	var abcasts []*dataPacket
	for _, rc := range rec {
		if _, have := gs.recent.Get(rc.ID); have {
			continue
		}
		pkt, ok := parseDataPacket(rc.Packet)
		switch {
		case !ok:
		case pkt.proto == ABCAST:
			abcasts = append(abcasts, pkt)
		case pkt.view == gs.view.ID:
			d.processCbcastLocked(gs, pkt)
		default:
			d.recordRecentLocked(gs, rc.ID, pkt.raw, 0)
			d.deliverDataLocked(gs, pkt)
		}
	}
	slices.SortFunc(abcasts, func(a, b *dataPacket) int { return cmp.Or(cmp.Compare(a.view, b.view), cmp.Compare(a.seq, b.seq)) })
	for _, pkt := range abcasts {
		d.deliverAbcastLocked(gs, pkt)
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

// removeGhostsLocked asks the group coordinator to remove dead
// previous-incarnation members hosted at this site. Caller holds d.mu.
func (d *Daemon) removeGhostsLocked(gid addr.Address, ghosts []addr.Address) {
	if len(ghosts) == 0 {
		return
	}
	for _, g := range ghosts {
		d.failedProcs[g] = true
	}
	d.requestRemoval(gid, ghosts, gbFail, false)
}

// wrongRemoval records a local, live member that a failure view removed —
// evidence of a stale suspicion — so the caller can rejoin it once the
// commit has been applied.
type wrongRemoval struct {
	proc addr.Address
	recv func(block []byte, last bool)
}

// applyViewChangeLocked installs a new membership view and returns any
// local, live members the change wrongly removed (the caller rejoins them
// outside the lock). Caller holds d.mu.
func (d *Daemon) applyViewChangeLocked(gs *groupState, newView core.View, kind int64, procs []addr.Address, wantState bool) []wrongRemoval {
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

	// Track joiners awaiting a state transfer — at every member site, not
	// just the provider's, so whichever site hosts the new oldest member
	// after a failure can take the transfer over.
	if kind == gbJoin && wantState {
		if gs.pendingXfer == nil {
			gs.pendingXfer = make(map[addr.Address]bool)
		}
		for _, p := range procs {
			if newView.Contains(p) && !old.Contains(p) {
				gs.pendingXfer[p.Base()] = true
			}
		}
	}
	for j := range gs.pendingXfer {
		if !newView.Contains(j) {
			delete(gs.pendingXfer, j)
		}
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
		if pj, ok := d.pendingJoin[key]; ok {
			ms.stateRecv = pj.stateRecv
			delete(d.pendingJoin, key)
		}
		if wantState && !old.Contains(m) && contains(procs, m) {
			ms.awaitingState = true
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
	// group's oldest member (the provider) while transfers were still
	// pending, the new oldest member re-ships the state from the beginning;
	// the joiner discards any partial transfer from the dead provider (the
	// blocks carry the attempt id) so it never assembles a mixed state.
	switch {
	case kind == gbJoin && wantState:
		if !contains(procs, newView.Coordinator()) {
			d.shipStateLocked(gs, procs)
		}
	case kind != gbJoin && len(gs.pendingXfer) > 0 && old.Size() > 0 &&
		old.Coordinator().Base() != newView.Coordinator().Base():
		joiners := make([]addr.Address, 0, len(gs.pendingXfer))
		for j := range gs.pendingXfer {
			joiners = append(joiners, j)
		}
		d.shipStateLocked(gs, joiners)
	}
	return wrong
}

func contains(list []addr.Address, a addr.Address) bool {
	for _, x := range list {
		if x.Base() == a.Base() {
			return true
		}
	}
	return false
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
			_ = d.sendRaw(j.Site, h.encode(ptStateBlock, b))
		}
	}
}

// handleStateBlockLocked buffers a state-transfer block for a joining member
// and, on the final block, delivers the complete state to the receiver,
// releases the deliveries held while the transfer was in progress, and
// announces the completion so no site re-triggers the transfer. Buffering
// until the final block (rather than streaming) is what makes provider
// fail-over safe: a transfer restarted by the new oldest member simply
// discards the dead provider's partial buffer instead of handing the
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
	delete(gs.pendingXfer, target.Base())

	// Tell every member site the transfer completed, so a later coordinator
	// change does not re-trigger it.
	ack := stateHeader{group: gid.Base(), joiner: target.Base(), xferID: xid, last: true}
	d.fanoutRaw(gs.view.SitesOf(), ack.encode(ptStateAck, nil))
}

// handleStateAckLocked records that a joiner's state transfer completed, so
// this site will not re-trigger it if it later hosts the new oldest member.
// Caller holds d.mu.
func (d *Daemon) handleStateAckLocked(h stateHeader) {
	if gs, ok := d.groups[h.group.Base()]; ok {
		delete(gs.pendingXfer, h.joiner.Base())
	}
}

// handleSiteFailure reacts to the failure detector declaring a site dead. Calls
// in flight to it are ended first (endCallsLocked), so their callers re-route
// to a successor instead of waiting out the call timeout. If this daemon hosts
// the acting coordinator of a group with members at the dead site, it requests
// their removal, whose flush carries to every survivor what any of them
// delivered. When the dead site hosted the group's previous acting coordinator, the
// removal is forced: the old coordinator may have died mid-flush — members
// wedged by its prepare, its commit delivered to only some of them, its gbQueue
// lost — so the successor must re-run the full wedge/flush even if the
// membership change itself turns out to be a no-op at this site. Requests
// orphaned at the dead coordinator are re-submitted by their requesters
// (coordinatorCall retries with a stable request id once the in-flight exchange
// has ended), and the commit-time dedupe keeps re-execution idempotent.
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
		d.requestRemoval(gid, atSite, gbFail, force)
	}
	d.suspected[s] = true
}
