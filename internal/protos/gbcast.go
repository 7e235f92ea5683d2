package protos

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/msg"
)

// gbWork is one GBCAST to execute: a membership change (join, leave,
// failure) or a user-level GBCAST (including configuration updates). The
// group coordinator serializes these per group and runs the two-phase
// flush/commit protocol for each.
type gbWork struct {
	kind       int64
	gid        addr.Address
	procs      []addr.Address
	wantState  bool
	payload    *msg.Message
	entry      addr.EntryID
	sender     addr.Address
	reqID      int64       // stable request id; survives coordinator fail-over
	sealTarget int64       // gbSeal: the request id whose outcome is being settled
	force      bool        // run the full wedge/flush even if the change is a no-op
	replyTo    addr.SiteID // requester site (0 when local)
	replyCall  int64
	done       chan *msg.Message // local requester waits here (nil otherwise)
}

// decodeGbWork reads a unit of work from a ptGbRequest body (or from the
// request message a local caller built, which has the same fields).
func decodeGbWork(p *msg.Message) *gbWork {
	return &gbWork{
		kind:       p.GetInt(fKind, 0),
		gid:        p.GetAddress(fGroup),
		procs:      p.GetAddressList(fProcs),
		wantState:  p.GetInt(fWantState, 0) == 1,
		payload:    p.GetMessage(fPayload),
		entry:      addr.EntryID(p.GetInt(fEntry, 0)),
		sender:     p.GetAddress(fSender),
		reqID:      p.GetInt(fReqID, 0),
		sealTarget: p.GetInt(fSealReq, 0),
		force:      p.GetInt(fForce, 0) == 1,
	}
}

// handleGbRequest processes a request addressed to this site in its role as
// the group's (acting) coordinator.
func (d *Daemon) handleGbRequest(from addr.SiteID, p *msg.Message) {
	w := decodeGbWork(p)
	w.replyTo, w.replyCall = from, p.GetInt(fCall, 0)
	if err := d.enqueueGb(w); err != nil {
		d.replyError(from, w.replyCall, err.Error())
	}
}

// localGbRequest executes a gb request originated by a local caller and
// waits for its completion.
func (d *Daemon) localGbRequest(gid addr.Address, req *msg.Message) (*msg.Message, error) {
	w := decodeGbWork(req)
	w.gid, w.done = gid.Base(), make(chan *msg.Message, 1)
	if err := d.enqueueGb(w); err != nil {
		return nil, err
	}
	select {
	case resp := <-w.done:
		if resp != nil && resp.Has(fErr) {
			return nil, wireError("protos: %s", resp.GetString(fErr, "gbcast failed"))
		}
		return resp, nil
	case <-time.After(2 * d.cfg.CallTimeout):
		return nil, ErrTimeout
	case <-d.stopScan:
		return nil, ErrClosed
	}
}

// enqueueGb appends work to the group's queue and starts the per-group
// worker if it is not already running.
func (d *Daemon) enqueueGb(w *gbWork) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	gs, ok := d.groups[w.gid]
	if !ok {
		return ErrUnknownGroup
	}
	gs.gbQueue = append(gs.gbQueue, w)
	if !gs.gbBusy {
		gs.gbBusy = true
		go d.runGbWorker(w.gid)
	}
	return nil
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
		d.executeGb(w)
	}
}

// viewReply builds the coordinator's positive answer: the view the request
// ended in.
func viewReply(v core.View) *msg.Message {
	resp := msg.New()
	resp.PutMessage(fView, encodeView(v))
	return resp
}

// executeGb runs the two-phase GBCAST protocol for one unit of work: admit,
// collect phase 1, decide (decideFlush — the rules), commit.
func (d *Daemon) executeGb(w *gbWork) {
	d.mu.Lock()
	gs, ok := d.groups[w.gid]
	if !ok {
		d.mu.Unlock()
		d.gbReply(w, nil, ErrUnknownGroup.Error())
		return
	}
	if !gs.phase.primary() {
		// This copy of the group is stranded in a minority partition: no
		// view may be installed and no GBCAST committed until the merge
		// protocol rejoins the primary.
		d.mu.Unlock()
		d.gbReply(w, nil, ErrNonPrimary.Error())
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
		d.gbReply(w, viewReply(oldView), "")
		return
	}

	acks := d.collectAcks(w, seq, oldView)
	dec := decideFlush(flushRound{
		kind: w.kind, procs: w.procs, view: oldView, self: d.site, acks: acks,
	})
	if dec.nonPrimary {
		d.enterNonPrimary(w.gid, acks)
		d.gbReply(w, nil, ErrNonPrimary.Error())
		return
	}

	// Phase 2: commit at every member site of old, base, and new views.
	sealing := w.kind == gbSeal && w.sealTarget != 0
	commit := msg.NewSized(8) // a join's commit; only a user GBCAST's or a seal's grows
	commit.PutAddress(fGroup, w.gid)
	commit.PutInt(fGbID, int64(seq))
	commit.PutInt(fKind, w.kind)
	commit.PutAddressList(fProcs, dec.procs)
	commit.PutMessage(fView, encodeView(dec.newView))
	commit.PutMessage(fRebcast, encodePendingReport(dec.rebcast))
	if w.reqID != 0 {
		commit.PutInt(fReqID, w.reqID)
	}
	if sealing {
		commit.PutInt(fSealReq, w.sealTarget)
		commit.PutInt(fOutcome, dec.outcome)
	}
	if w.wantState {
		commit.PutInt(fWantState, 1)
	}
	if w.payload != nil {
		commit.PutMessage(fPayload, w.payload)
		commit.PutInt(fEntry, int64(w.entry))
		commit.PutAddress(fSender, w.sender)
	}
	// The commit is marshalled once; all member sites share the encoding.
	if raw, err := encodePacket(ptGbCommit, commit); err == nil {
		d.fanoutRaw(unionSites(dec.newView, dec.base, oldView), raw)
	}
	d.applyGbCommit(d.site, commit)

	if dec.newView.ID > oldView.ID {
		d.bus.Publish(events.Event{Kind: events.ViewCommitted, Group: w.gid, View: dec.newView.ID})
	}
	resp := viewReply(dec.newView)
	if sealing {
		resp.PutInt(fOutcome, dec.outcome)
	}
	d.gbReply(w, resp, "")
}

// gbReply delivers the coordinator's final answer to whoever asked for the
// GBCAST.
func (d *Daemon) gbReply(w *gbWork, resp *msg.Message, errText string) {
	if w.done != nil {
		if errText != "" {
			resp = msg.New()
			resp.PutString(fErr, errText)
		}
		select {
		case w.done <- resp:
		default:
		}
		return
	}
	if w.replyTo == 0 && w.replyCall == 0 {
		return // fire-and-forget internal work (failure removals)
	}
	if errText != "" {
		d.replyError(w.replyTo, w.replyCall, errText)
		return
	}
	out := resp.Clone()
	out.PutInt(fCall, w.replyCall)
	_ = d.sendPacket(w.replyTo, ptGbDone, out)
}

// unionSites lists each member site of the given views once, in no
// particular order.
func unionSites(views ...core.View) []addr.SiteID {
	sites := make(map[addr.SiteID]bool)
	for _, v := range views {
		for _, m := range v.Members {
			sites[m.Site] = true
		}
	}
	return slices.Collect(maps.Keys(sites))
}

// collectAcks runs phase 1: it wedges every member site of the view and
// collects their answers — each site's pending-state report and current
// view, its word on the removal targets it hosts, and its vote in an
// outcome-settling flush. A site missing from the result did not answer.
func (d *Daemon) collectAcks(w *gbWork, seq uint64, view core.View) map[addr.SiteID]prepareAck {
	prepare := msg.New()
	prepare.PutAddress(fGroup, w.gid)
	prepare.PutInt(fGbID, int64(seq))
	prepare.PutInt(fViewID, int64(view.ID))
	var targets []addr.Address
	if w.kind == gbFail && len(w.procs) > 0 {
		// Failure removals name their targets in the prepare, so each
		// member site can corroborate (or dispute) the claimed deaths of the
		// processes it hosts.
		targets = w.procs
		prepare.PutAddressList(fProcs, targets)
	}
	var sealTarget int64
	if w.kind == gbSeal && w.sealTarget != 0 {
		// Outcome settlement: each member site reports its first-hand
		// knowledge of the target request id in its ack.
		sealTarget = w.sealTarget
		prepare.PutInt(fSealReq, sealTarget)
	}

	acks := make(map[addr.SiteID]prepareAck)
	var ackMu sync.Mutex
	var wg sync.WaitGroup
	for _, site := range view.SitesOf() {
		if site == d.site {
			d.mu.Lock()
			own := d.prepareLocalLocked(w.gid, targets, sealTarget, true)
			d.mu.Unlock()
			ackMu.Lock()
			acks[d.site] = own
			ackMu.Unlock()
			continue
		}
		d.mu.Lock()
		dead := d.suspected[site]
		d.mu.Unlock()
		if dead {
			continue
		}
		wg.Add(1)
		go func(site addr.SiteID) {
			defer wg.Done()
			// Retry a failed prepare while the member site is still believed
			// alive: silently treating a transient call failure as a site
			// death would let this coordinator mint a view id the unreached
			// member may already hold with different contents (it would then
			// drop the commit as stale and diverge). Once the detector
			// declares the site dead, its members are removed later and the
			// missing report is legitimate. Calls to a site declared dead
			// mid-exchange abort immediately (failCallsTo), so the retries
			// never outlive the suspicion.
			for attempt := 0; attempt < 3; attempt++ {
				// Clone per call: d.call stamps a per-exchange call id into
				// the body, and these calls run concurrently.
				resp, err := d.call(site, ptGbPrepare, prepare.Clone())
				if err == nil {
					ackMu.Lock()
					acks[site] = prepareAck{
						report: decodePendingReport(resp.GetMessage(fPending)),
						view:   decodeView(resp.GetMessage(fView)),
						dead:   resp.GetAddressList(fDead),
						vote:   resp.GetInt(fOutcome, 0),
					}
					ackMu.Unlock()
					return
				}
				d.mu.Lock()
				dead := d.suspected[site]
				d.mu.Unlock()
				if dead {
					return // treat as failed; its members will be removed later
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

// buildReportLocked summarises the copy's pending and recently delivered
// messages, plus the phase-2 state of any ABCAST this site is initiating (the
// priorities collected so far), so a GBCAST flush sees every in-flight ABCAST
// the site knows about. An uncommitted entry reports the priority proposed
// for it, a committed entry its final priority. Caller holds d.mu.
func (d *Daemon) buildReportLocked(gs *groupState) pendingReport {
	var rep pendingReport
	idx := make(map[core.MsgID]int)
	for _, p := range gs.total.Pending() {
		e := abPendingWire{ID: p.ID, Committed: p.Committed, Priority: p.Priority}
		if pkt, _ := p.Payload.(*dataPacket); pkt != nil {
			e.Packet = pkt.raw
		}
		idx[p.ID] = len(rep.Abcasts)
		rep.Abcasts = append(rep.Abcasts, e)
	}
	for id, st := range d.pendingAb {
		if st.group != gs.view.Group {
			continue
		}
		if i, ok := idx[id]; ok {
			e := &rep.Abcasts[i]
			if !e.Committed && st.maxPrio > e.Priority {
				e.Priority = st.maxPrio
			}
			if e.Packet == nil {
				e.Packet = st.packet.raw
			}
			e.Init = true
			continue
		}
		idx[id] = len(rep.Abcasts)
		rep.Abcasts = append(rep.Abcasts, abPendingWire{ID: id, Priority: st.maxPrio, Packet: st.packet.raw, Init: true})
	}
	for _, id := range gs.recent.Keys() {
		e, _ := gs.recent.Get(id)
		if e.prio == 0 {
			e.prio, _ = d.abDone.Get(id)
		}
		rep.Recent = append(rep.Recent, recentWire{ID: id, Packet: e.raw, Priority: e.prio})
	}
	return rep
}

// handleGbPrepare processes phase 1 at a non-coordinator member site. The
// ack carries this site's current view alongside its pending report so that
// a coordinator taking over mid-protocol can base the new view on the most
// advanced copy any survivor holds.
func (d *Daemon) handleGbPrepare(from addr.SiteID, p *msg.Message) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.suspected[from] {
		// A straggling prepare from a coordinator already declared failed
		// (e.g. held in the network across the crash): wedging for it would
		// freeze the group with nobody left to run the commit that
		// unwedges it. The takeover flush owns the group now.
		return
	}
	ack := d.prepareLocalLocked(p.GetAddress(fGroup).Base(), p.GetAddressList(fProcs), p.GetInt(fSealReq, 0), false)
	resp := msg.New()
	resp.PutInt(fCall, p.GetInt(fCall, 0))
	resp.PutMessage(fPending, encodePendingReport(ack.report))
	if ack.view.ID > 0 {
		resp.PutMessage(fView, encodeView(ack.view))
	}
	if ack.vote != voteUnknown {
		resp.PutInt(fOutcome, ack.vote)
	}
	if len(ack.dead) > 0 {
		resp.PutAddressList(fDead, ack.dead)
	}
	_ = d.sendPacket(from, ptGbAck, resp)
}

// applyGbCommit installs the effect of a GBCAST at this site: re-delivers
// reconciled messages, applies the membership change or delivers the user
// payload, notifies local members, and ends the flush.
func (d *Daemon) applyGbCommit(from addr.SiteID, p *msg.Message) {
	gid := p.GetAddress(fGroup).Base()
	kind := p.GetInt(fKind, 0)
	newView := decodeView(p.GetMessage(fView))
	rec := decodePendingReport(p.GetMessage(fRebcast))
	procs := p.GetAddressList(fProcs)
	wantState := p.GetInt(fWantState, 0) == 1
	reqID := p.GetInt(fReqID, 0)
	sealReq := p.GetInt(fSealReq, 0)
	sealOutcome := p.GetInt(fOutcome, 0)

	d.mu.Lock()
	defer d.mu.Unlock()
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
	// failures are detected locally, and the restarted site answers
	// heartbeats, so no timeout will ever fire for them. Request their
	// removal.
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

	// Step 1: everything the flush resolved is delivered (or discarded)
	// before the GBCAST point.
	fenced := d.applyRebcastLocked(gs, rec)

	// Step 2: apply the membership change or deliver the user payload.
	var wrong []wrongRemoval
	switch kind {
	case gbUser:
		payload := p.GetMessage(fPayload)
		entry := addr.EntryID(p.GetInt(fEntry, 0))
		sender := p.GetAddress(fSender)
		if payload != nil && !dupReq {
			for _, ms := range gs.members {
				d.counters.Delivered++
				d.enqueueMember(ms, queued{entry: entry, m: d.buildDelivery(payload, sender, gs.view.Group, gs.view.ID, GBCAST)})
			}
		}
	case gbJoin, gbLeave, gbFail, 0:
		wrong = d.applyViewChangeLocked(gs, newView, kind, procs, wantState)
	case gbSeal:
		if sealReq != 0 {
			gs.marks.Seal(sealReq, sealOutcome == voteCommitted)
		}
	}

	// Restart fenced ABCASTs this site initiated: a fresh protocol round
	// (higher attempt — stale proposals to the old round are filtered) under
	// the view just installed. The old round's completion, if this flush
	// parked it, finds the state replaced and stands down. A site whose last
	// member was removed by this very change retires the round instead — the
	// message is dropped, exactly as if its sender had failed.
	for _, st := range fenced {
		d.retireAbcastLocked(st)
		if len(gs.members) == 0 {
			d.releaseAbSenderLocked(st)
			continue
		}
		// A new header in front of the payload bytes the fenced packet went out
		// with. The sender's Flush accounting is carried over, not counted again.
		pkt := *st.packet
		pkt.view, pkt.attempt = gs.view.ID, pkt.attempt+1
		_ = pkt.encode() // nothing is marshalled, nothing can fail
		d.initiateAbcastLocked(gs, &pkt, st.sender)
	}

	// Step 3: the flush is over, and what it held back is taken up again. A
	// site left with no members drops the group state entirely first, so what
	// it held back finds no copy; its flush ends as the commit's all the same.
	if len(gs.members) == 0 {
		d.dropGroupLocked(gid, inCommit)
		d.remoteViews[gid] = newView.Clone()
	} else {
		d.step(gs, inCommit)
	}

	d.removeGhostsLocked(gid, ghosts)
	for _, w := range wrong {
		// The member rejoins through the ordinary join machinery, pulling
		// fresh state if it has a receiver.
		go d.rejoinOrPark(gid, w.proc, w.recv, false)
	}
}

// applyRebcastLocked carries out a commit's reconciliation instructions at
// this site and returns the fenced ABCAST rounds this site initiated (the
// caller restarts them under the new view). Caller holds d.mu.
func (d *Daemon) applyRebcastLocked(gs *groupState, rec pendingReport) (fenced []*abSendState) {
	gid := gs.view.Group
	// Re-disseminated messages take the one way into delivery, the queue of
	// their protocol, skipping anything already delivered here. Handed to the
	// members as the list has them — reconcile builds it by ranging over a map
	// — they arrived out of sender order, and an ABCAST ahead of its place. An
	// ABCAST is committed at the final the delivering site recorded and comes
	// out in its turn; a CBCAST of the installed view waits for its causal
	// predecessors, which the list also holds (one whose predecessor has left
	// every site's recent log waits until the view goes). Only a CBCAST of
	// another view — closed, or one a lagging copy never installed — is handed
	// straight over: its timestamp means nothing to this view's clock, and
	// handleDataLocked turns such a packet away from now on. A packet travels in
	// the commit as the bytes it was sent as and is decoded here, to be delivered.
	for _, rc := range rec.Recent {
		if _, have := gs.recent.Get(rc.ID); have {
			continue
		}
		pkt, ok := parseDataPacket(rc.Packet)
		switch {
		case !ok:
		case pkt.proto == ABCAST:
			d.deliverTotalLocked(gs, gs.total.ForceCommit(rc.ID, pkt, rc.Priority))
		case pkt.view == gs.view.ID:
			d.processCbcastLocked(gs, pkt)
		default:
			d.recordRecentLocked(gs, rc.ID, pkt.raw, 0)
			d.deliverDataLocked(gs, pkt)
		}
	}
	// Fenced ABCASTs next: the message could not be completed on this side
	// of the view change, so every member discards its phase-1 state; the
	// site that initiated one restarts its round once the membership change
	// is installed, so every member delivers the message after the GBCAST
	// point. The discards run before the completions driven underneath: a
	// driven commit must not stay blocked behind an entry the flush is about
	// to fence (the site-local queue would deliver it after the GBCAST point
	// while other sites deliver it before — the very divergence this
	// protocol closes).
	for _, id := range rec.Fenced {
		d.bus.Publish(events.Event{Kind: events.AbcastFenced, Group: gid, Msg: id})
		d.deliverTotalLocked(gs, gs.total.Discard(id))
		if st, ok := d.pendingAb[id]; ok && st.group == gid {
			fenced = append(fenced, st)
		}
	}
	for _, ab := range rec.Abcasts {
		if ab.Committed {
			d.recordAbDoneLocked(ab.ID, ab.Priority)
			pkt, _ := parseDataPacket(ab.Packet) // used only where the message is not yet pending
			d.deliverTotalLocked(gs, gs.total.ForceCommit(ab.ID, pkt, ab.Priority))
		} else {
			d.deliverTotalLocked(gs, gs.total.Discard(ab.ID))
		}
		// The flush resolved this in-flight ABCAST (completed or discarded);
		// if this site initiated it, its own protocol round is over. The
		// retire keeps the sender's outstanding count (the Flush API) exact
		// and stops its deadline from fanning out a conflicting commit.
		if st, ok := d.pendingAb[ab.ID]; ok && st.group == gid {
			d.retireAbcastLocked(st)
			d.releaseAbSenderLocked(st)
		}
	}
	return fenced
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
// the group state to the joiners. The capture runs on that member's task
// queue, so the snapshot reflects exactly the deliveries that precede the
// view just installed. Caller holds d.mu.
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
// from the original provider's stragglers. Runs on the providing member's
// task queue.
func (d *Daemon) sendStateBlocks(gid addr.Address, joiners []addr.Address, provider func() [][]byte, xferID uint64) {
	var blocks [][]byte
	if provider != nil {
		blocks = provider()
	}
	for _, j := range joiners {
		if len(blocks) == 0 {
			pkt := msg.NewSized(4)
			pkt.PutAddress(fGroup, gid)
			pkt.PutAddress(fSender, j)
			pkt.PutInt(fStateLast, 1)
			pkt.PutInt(fXferID, int64(xferID))
			_ = d.sendPacket(j.Site, ptStateBlock, pkt)
			continue
		}
		for i, b := range blocks {
			pkt := msg.NewSized(5)
			pkt.PutAddress(fGroup, gid)
			pkt.PutAddress(fSender, j)
			pkt.PutBytes(fStateData, b)
			if i == len(blocks)-1 {
				pkt.PutInt(fStateLast, 1)
			}
			pkt.PutInt(fXferID, int64(xferID))
			_ = d.sendPacket(j.Site, ptStateBlock, pkt)
		}
	}
}

// handleStateBlock buffers a state-transfer block for a joining member and,
// on the final block, delivers the complete state to the receiver, releases
// the deliveries held while the transfer was in progress, and announces the
// completion so no site re-triggers the transfer. Buffering until the final
// block (rather than streaming) is what makes provider fail-over safe: a
// transfer restarted by the new oldest member simply discards the dead
// provider's partial buffer instead of handing the application a mix of two
// providers' blocks.
func (d *Daemon) handleStateBlock(from addr.SiteID, p *msg.Message) {
	gid := p.GetAddress(fGroup)
	target := p.GetAddress(fSender)
	data := p.GetBytes(fStateData) // the one copy: the StateReceiver may write into it
	last := p.GetInt(fStateLast, 0) == 1
	xid := uint64(p.GetInt(fXferID, 0))

	d.mu.Lock()
	defer d.mu.Unlock()
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
	if !last {
		return
	}

	// Final block: hand the complete state to the receiver in order, then
	// release the held deliveries behind it on the same queue.
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
			b, lastBlock := b, i == len(blocks)-1
			d.enqueue(ms.proc, queued{fn: func() { recv(b, lastBlock) }})
		}
	}
	for _, q := range held {
		d.enqueue(ms.proc, q)
	}
	delete(gs.pendingXfer, target.Base())

	// Tell every member site the transfer completed, so a later coordinator
	// change does not re-trigger it.
	ack := msg.New()
	ack.PutAddress(fGroup, gid.Base())
	ack.PutAddress(fSender, target.Base())
	if raw, err := encodePacket(ptStateAck, ack); err == nil {
		d.fanoutRaw(gs.view.SitesOf(), raw)
	}
}

// handleStateAck records that a joiner's state transfer completed, so this
// site will not re-trigger it if it later hosts the new oldest member.
func (d *Daemon) handleStateAck(from addr.SiteID, p *msg.Message) {
	gid := p.GetAddress(fGroup)
	joiner := p.GetAddress(fSender)
	d.mu.Lock()
	defer d.mu.Unlock()
	if gs, ok := d.groups[gid.Base()]; ok {
		delete(gs.pendingXfer, joiner.Base())
	}
}

// enterNonPrimary puts this partition's copy of a group into read-only
// non-primary mode after a failed majority check, and tells the member sites
// whose acks it holds to do the same. The gbNonPrimary notice ends the flush
// (held reads drain) without installing a view.
func (d *Daemon) enterNonPrimary(gid addr.Address, acks map[addr.SiteID]prepareAck) {
	notice := msg.New()
	notice.PutAddress(fGroup, gid)
	notice.PutInt(fKind, gbNonPrimary)
	if raw, err := encodePacket(ptGbCommit, notice); err == nil {
		d.fanoutRaw(slices.Collect(maps.Keys(acks)), raw)
	}
	d.applyGbCommit(d.site, notice)
}

// handleSiteFailure reacts to the failure detector declaring a site dead:
// ABCASTs waiting on its proposals complete without it, and if this daemon
// hosts the acting coordinator of a group with members at the dead site, it
// initiates their removal. When the dead site hosted the group's previous
// acting coordinator, the removal is forced: the old coordinator may have
// died mid-flush — members wedged by its prepare, its commit delivered to
// only some of them, its gbQueue lost — so the successor must re-run the
// full wedge/flush even if the membership change itself turns out to be a
// no-op at this site. Requests orphaned at the dead coordinator are
// re-submitted by their requesters (coordinatorCall retries with a stable
// request id once failCallsTo aborts the in-flight exchange), and the
// commit-time dedupe keeps re-execution idempotent.
func (d *Daemon) handleSiteFailure(s addr.SiteID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, st := range d.pendingAb {
		if st.proposalInLocked(s) {
			d.completeAbcastLocked(st)
		}
	}
	for gid, gs := range d.groups {
		var atSite []addr.Address
		for _, m := range gs.view.Members {
			if m.Site == s {
				atSite = append(atSite, m)
			}
		}
		force := false
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
		coord := d.actingCoordinator(gs.view)
		if coord.IsNil() || coord.Site != d.site {
			continue
		}
		// Was the previous acting coordinator hosted at the dead site? Walk
		// the ranking as it stood before s was suspected (s is already in
		// d.suspected here, so treat it as alive for this scan).
		if !force {
			for _, m := range gs.view.Members {
				if m.Site == s {
					force = true
					break
				}
				if !d.suspected[m.Site] && !d.failedProcs[m.Base()] {
					break
				}
			}
		}
		if force {
			// This site is stepping in for a coordinator that died
			// mid-protocol (or mid-fan-out): the forced flush finishes the
			// dead coordinator's work.
			d.bus.Publish(events.Event{Kind: events.Takeover, Group: gid, Peer: s})
		}
		d.requestRemoval(gid, atSite, gbFail, force)
	}
}
