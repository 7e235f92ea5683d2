package protos

import (
	"fmt"
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

// handleGbRequest processes a request addressed to this site in its role as
// the group's (acting) coordinator.
func (d *Daemon) handleGbRequest(from addr.SiteID, p *msg.Message) {
	w := &gbWork{
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
		replyTo:    from,
		replyCall:  p.GetInt(fCall, 0),
	}
	if err := d.enqueueGb(w); err != nil {
		d.replyError(from, w.replyCall, err.Error())
	}
}

// localGbRequest executes a gb request originated by a local caller and
// waits for its completion.
func (d *Daemon) localGbRequest(gid addr.Address, req *msg.Message) (*msg.Message, error) {
	w := &gbWork{
		kind:       req.GetInt(fKind, 0),
		gid:        gid.Base(),
		procs:      req.GetAddressList(fProcs),
		wantState:  req.GetInt(fWantState, 0) == 1,
		payload:    req.GetMessage(fPayload),
		entry:      addr.EntryID(req.GetInt(fEntry, 0)),
		sender:     req.GetAddress(fSender),
		reqID:      req.GetInt(fReqID, 0),
		sealTarget: req.GetInt(fSealReq, 0),
		force:      req.GetInt(fForce, 0) == 1,
		done:       make(chan *msg.Message, 1),
	}
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

// executeGb runs the two-phase GBCAST protocol for one unit of work.
func (d *Daemon) executeGb(w *gbWork) {
	d.mu.Lock()
	gs, ok := d.groups[w.gid]
	if !ok {
		d.mu.Unlock()
		d.gbReply(w, nil, ErrUnknownGroup.Error())
		return
	}
	if gs.nonPrimary {
		// This copy of the group is stranded in a minority partition: no
		// view may be installed and no GBCAST committed until the merge
		// protocol rejoins the primary.
		d.mu.Unlock()
		d.gbReply(w, nil, ErrNonPrimary.Error())
		return
	}
	if w.reqID != 0 && gbCommittedLocked(gs, w.reqID) {
		// The request already committed — typically under a previous
		// coordinator that died after sending its commit but before
		// answering the requester. Answer with the current view instead of
		// executing the protocol a second time.
		resp := msg.New()
		resp.PutMessage(fView, encodeView(gs.view))
		d.mu.Unlock()
		d.gbReply(w, resp, "")
		return
	}
	oldView := gs.view.Clone()
	gs.gbSeq++
	seq := gs.gbSeq
	d.counters.GBCASTs++
	d.mu.Unlock()

	// Skip no-op membership changes (a failure already handled, or a
	// re-submitted join whose commit already reached this site) — unless
	// the work is a forced takeover flush, which must run the full
	// protocol precisely because other members may not have seen the
	// commit that made it a no-op here.
	if !w.force {
		switch w.kind {
		case gbFail, gbLeave:
			all := true
			for _, p := range w.procs {
				if oldView.Contains(p) {
					all = false
					break
				}
			}
			if all {
				resp := msg.New()
				resp.PutMessage(fView, encodeView(oldView))
				d.gbReply(w, resp, "")
				return
			}
		case gbJoin:
			all := true
			for _, p := range w.procs {
				if !oldView.Contains(p) {
					all = false
					break
				}
			}
			if all {
				resp := msg.New()
				resp.PutMessage(fView, encodeView(oldView))
				d.gbReply(w, resp, "")
				return
			}
		}
	}

	// Phase 1: wedge every member site of the old view and collect pending
	// state reports, along with each member's current view.
	prepare := msg.New()
	prepare.PutAddress(fGroup, w.gid)
	prepare.PutInt(fGbID, int64(seq))
	prepare.PutInt(fViewID, int64(oldView.ID))
	if w.kind == gbFail && len(w.procs) > 0 {
		// Failure removals name their targets in the prepare, so each
		// member site can corroborate (or dispute) the claimed deaths of the
		// processes it hosts.
		prepare.PutAddressList(fProcs, w.procs)
	}
	if w.kind == gbSeal && w.sealTarget != 0 {
		// Outcome settlement: each member site reports its first-hand
		// knowledge of the target request id in its ack. One positive
		// report suffices — a commit that reached any survivor counts as
		// committed, even when this (successor) coordinator missed it.
		prepare.PutInt(fSealReq, w.sealTarget)
	}
	sealCommitted := false

	reports := make(map[addr.SiteID]pendingReport)
	views := make(map[addr.SiteID]core.View)
	deadAck := make(map[addr.SiteID]addr.List)
	var repMu sync.Mutex
	var wg sync.WaitGroup
	for _, site := range oldView.SitesOf() {
		if site == d.site {
			rep, _ := d.prepareLocal(w.gid)
			repMu.Lock()
			reports[d.site] = rep
			repMu.Unlock()
			if w.kind == gbSeal && w.sealTarget != 0 {
				d.mu.Lock()
				if own, ok := d.groups[w.gid]; ok && gbOutcomeVoteLocked(own, w.sealTarget) == voteCommitted {
					sealCommitted = true
				}
				d.mu.Unlock()
			}
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
			var resp *msg.Message
			var err error
			for attempt := 0; attempt < 3; attempt++ {
				// Clone per call: d.call stamps a per-exchange call id into
				// the body, and these calls run concurrently.
				resp, err = d.call(site, ptGbPrepare, prepare.Clone())
				if err == nil {
					break
				}
				d.mu.Lock()
				dead := d.suspected[site]
				d.mu.Unlock()
				if dead {
					return // treat as failed; its members will be removed later
				}
			}
			if err != nil {
				return
			}
			repMu.Lock()
			reports[site] = decodePendingReport(resp.GetMessage(fPending))
			if v := decodeView(resp.GetMessage(fView)); v.ID > 0 {
				views[site] = v
			}
			deadAck[site] = resp.GetAddressList(fDead)
			if resp.GetInt(fOutcome, 0) == voteCommitted {
				sealCommitted = true
			}
			repMu.Unlock()
		}(site)
	}
	wg.Wait()

	// Corroborate failure removals: a target whose hosting site answered the
	// prepare and vouches for the process must not be removed. A failure
	// claim is honoured only when the hosting site is unreachable, confirms
	// the death itself (a locally detected process crash, or a ghost of a
	// previous incarnation), or the coordinator has its own evidence. This
	// is what stops a stale takeover request — e.g. one a wedged minority
	// sent toward a presumed-dead coordinator, queued in the reliable
	// transport and retransmitted across the partition heal — from removing
	// perfectly healthy members.
	if w.kind == gbFail {
		kept := make([]addr.Address, 0, len(w.procs))
		d.mu.Lock()
		for _, pr := range w.procs {
			if _, reached := reports[pr.Site]; !reached {
				kept = append(kept, pr)
				continue
			}
			confirmed := d.failedProcs[pr.Base()]
			if pr.Site == d.site {
				lp, ok := d.procs[pr.Base()]
				if !ok || !lp.alive {
					confirmed = true
				}
			} else if deadAck[pr.Site].Contains(pr) {
				confirmed = true
			}
			if confirmed {
				kept = append(kept, pr)
			}
		}
		d.mu.Unlock()
		w.procs = kept
	}

	// A coordinator taking over from one that died mid-commit may find
	// members already at a later view than its own: base the change on the
	// most advanced view any member reports, so the dead coordinator's
	// partially completed commit is finished (re-run, idempotently) rather
	// than contradicted by a conflicting view with the same id.
	base := oldView
	for _, v := range views {
		if v.Group == base.Group && v.ID > base.ID {
			base = v.Clone()
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
	if d.cfg.Merge != MergeNone {
		votes := 0
		for _, m := range base.Members {
			if _, reached := reports[m.Site]; reached {
				votes++
			}
		}
		if votes*2 < len(base.Members) {
			d.enterNonPrimary(w.gid, reports)
			d.gbReply(w, nil, ErrNonPrimary.Error())
			return
		}
	}

	// Compute the new view.
	newView := base
	switch w.kind {
	case gbJoin:
		if !allContained(base, w.procs) {
			newView = base.WithJoined(w.procs...)
		}
	case gbLeave, gbFail:
		if anyContained(base, w.procs) {
			newView = base.WithRemoved(w.procs...)
		}
		// Otherwise every member being removed is already gone from the
		// most advanced view: this is a pure re-synchronising flush, so the
		// commit re-announces that view without minting a new id (members
		// already there treat it as stale and only unwedge; members behind
		// catch up to it).
	case gbUser, gbConfigHint, gbSeal:
		newView = base // unchanged; the GBCAST only carries a payload
	}

	// Reconcile pending state across members so that the atomicity rule
	// holds: an ABCAST committed anywhere is committed everywhere; an
	// ABCAST from a failed sender that no member committed is discarded; a
	// message delivered at some member but missed by another is
	// re-disseminated before the GBCAST point.
	rec := reconcile(reports, w.kind == gbFail, w.procs)

	// Phase 2: commit at every member site of old, base, and new views.
	commit := msg.New()
	commit.PutAddress(fGroup, w.gid)
	commit.PutInt(fGbID, int64(seq))
	commit.PutInt(fKind, w.kind)
	commit.PutAddressList(fProcs, w.procs)
	commit.PutMessage(fView, encodeView(newView))
	commit.PutMessage(fRebcast, encodePendingReport(rec))
	if w.reqID != 0 {
		commit.PutInt(fReqID, w.reqID)
	}
	if w.kind == gbSeal && w.sealTarget != 0 {
		commit.PutInt(fSealReq, w.sealTarget)
		if sealCommitted {
			commit.PutInt(fOutcome, voteCommitted)
		} else {
			commit.PutInt(fOutcome, voteAborted)
		}
	}
	if w.wantState {
		commit.PutInt(fWantState, 1)
	}
	if w.payload != nil {
		commit.PutMessage(fPayload, w.payload)
		commit.PutInt(fEntry, int64(w.entry))
		commit.PutAddress(fSender, w.sender)
	}

	targets := map[addr.SiteID]bool{}
	for _, s := range oldView.SitesOf() {
		targets[s] = true
	}
	for _, s := range base.SitesOf() {
		targets[s] = true
	}
	for _, s := range newView.SitesOf() {
		targets[s] = true
	}
	// The commit is marshalled once; all member sites share the encoding.
	if raw, err := encodePacket(ptGbCommit, commit); err == nil {
		for site := range targets {
			if site == d.site {
				continue
			}
			_ = d.sendRaw(site, raw)
		}
	}
	d.applyGbCommit(d.site, commit)

	if newView.ID > oldView.ID {
		d.bus.Publish(events.Event{Kind: events.ViewCommitted, Group: w.gid, View: newView.ID})
	}

	resp := msg.New()
	resp.PutMessage(fView, encodeView(newView))
	if w.kind == gbSeal && w.sealTarget != 0 {
		if sealCommitted {
			resp.PutInt(fOutcome, voteCommitted)
		} else {
			resp.PutInt(fOutcome, voteAborted)
		}
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
			// localGbRequest treats any response as success; encode errors
			// as a missing view, which callers check.
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
		packet    *msg.Message
		seen      int  // member sites whose report lists the entry
		initiator bool // some reporting site still holds the initiator round
	}
	abs := make(map[core.MsgID]*abAgg)
	recentCount := make(map[core.MsgID]int)
	recentPkt := make(map[core.MsgID]*msg.Message)
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
	// re-disseminated so every survivor delivers it before the GBCAST point.
	for id, count := range recentCount {
		if count < nSites {
			out.Recent = append(out.Recent, recentWire{ID: id, Packet: recentPkt[id]})
		}
	}
	return out
}

// prepareLocal wedges the group at this site and returns its pending-state
// report (the coordinator's own contribution to phase 1) together with the
// site's current view of the group. Every wedge arms a watchdog: a wedge
// whose commit never arrives — a prepare retransmitted by the reliable
// transport long after its coordinator's round ended, e.g. across a
// partition heal — would otherwise freeze the group forever.
func (d *Daemon) prepareLocal(gid addr.Address) (pendingReport, core.View) {
	d.mu.Lock()
	defer d.mu.Unlock()
	gs, ok := d.groups[gid]
	if !ok {
		return pendingReport{}, core.View{}
	}
	gs.wedged = true
	gs.wedgeSeq++
	seq := gs.wedgeSeq
	d.bus.Publish(events.Event{Kind: events.FlushBegin, Group: gid, View: gs.view.ID})
	// 4x the call timeout comfortably exceeds the longest legitimate flush
	// (concurrent prepares retry up to 3 calls before the commit follows).
	time.AfterFunc(4*d.cfg.CallTimeout, func() { d.unwedgeStale(gid, seq) })
	return d.buildReportLocked(gs), gs.view.Clone()
}

// unwedgeStale releases a wedge whose flush never completed (the watchdog
// armed by prepareLocal). A commit or a newer wedge advances the state, so
// the stale timer is a no-op in every healthy flow.
func (d *Daemon) unwedgeStale(gid addr.Address, seq uint64) {
	d.mu.Lock()
	gs, ok := d.groups[gid]
	if !ok || !gs.wedged || gs.wedgeSeq != seq {
		d.mu.Unlock()
		return
	}
	gs.wedged = false
	held := gs.heldPkts
	gs.heldPkts = nil
	d.mu.Unlock()
	for _, h := range held {
		d.dispatchHeld(h)
	}
}

// buildReportLocked summarises the pending and recently delivered messages
// of every local member, plus the phase-2 state of any ABCAST this site is
// initiating (the priorities collected so far), so a GBCAST flush sees every
// in-flight ABCAST the site knows about. For an entry pending at several
// local members the report carries the highest proposed priority (the final
// priority must dominate every proposal); a committed entry reports its
// final priority. Caller holds d.mu.
func (d *Daemon) buildReportLocked(gs *groupState) pendingReport {
	var rep pendingReport
	idx := make(map[core.MsgID]int)
	for _, ms := range gs.members {
		for _, p := range ms.total.Pending() {
			var pkt *msg.Message
			if m, ok := p.Payload.(*msg.Message); ok {
				pkt = m
			}
			i, ok := idx[p.ID]
			if !ok {
				idx[p.ID] = len(rep.Abcasts)
				rep.Abcasts = append(rep.Abcasts, abPendingWire{
					ID: p.ID, Committed: p.Committed, Priority: p.Priority, Packet: pkt,
				})
				continue
			}
			e := &rep.Abcasts[i]
			switch {
			case p.Committed && !e.Committed:
				e.Committed = true
				e.Priority = p.Priority
			case p.Committed == e.Committed && p.Priority > e.Priority:
				e.Priority = p.Priority
			}
			if e.Packet == nil {
				e.Packet = pkt
			}
		}
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
				e.Packet = st.packet
			}
			e.Init = true
			continue
		}
		idx[id] = len(rep.Abcasts)
		rep.Abcasts = append(rep.Abcasts, abPendingWire{ID: id, Priority: st.maxPrio, Packet: st.packet, Init: true})
	}
	for _, id := range gs.recent.Keys() {
		e, _ := gs.recent.Get(id)
		if e.prio == 0 {
			e.prio, _ = d.abDone.Get(id)
		}
		rep.Recent = append(rep.Recent, recentWire{ID: id, Packet: e.pkt, Priority: e.prio})
	}
	return rep
}

// handleGbPrepare processes phase 1 at a non-coordinator member site. The
// ack carries this site's current view alongside its pending report so that
// a coordinator taking over mid-protocol can base the new view on the most
// advanced copy any survivor holds.
func (d *Daemon) handleGbPrepare(from addr.SiteID, p *msg.Message) {
	d.mu.Lock()
	dead := d.suspected[from]
	d.mu.Unlock()
	if dead {
		// A straggling prepare from a coordinator already declared failed
		// (e.g. held in the network across the crash): wedging for it would
		// freeze the group with nobody left to run the commit that
		// unwedges it. The takeover flush owns the group now.
		return
	}
	gid := p.GetAddress(fGroup)
	rep, view := d.prepareLocal(gid.Base())
	resp := msg.New()
	resp.PutInt(fCall, p.GetInt(fCall, 0))
	resp.PutMessage(fPending, encodePendingReport(rep))
	if view.ID > 0 {
		resp.PutMessage(fView, encodeView(view))
	}
	// An outcome-settling flush: report this site's first-hand knowledge of
	// the target request id.
	if target := p.GetInt(fSealReq, 0); target != 0 {
		d.mu.Lock()
		if gs, ok := d.groups[gid.Base()]; ok {
			if v := gbOutcomeVoteLocked(gs, target); v != voteUnknown {
				resp.PutInt(fOutcome, v)
			}
		}
		d.mu.Unlock()
	}
	// Corroborate (or dispute) the claimed deaths of removal targets hosted
	// at this site: the coordinator drops targets whose hosting site vouches
	// for them.
	if targets := p.GetAddressList(fProcs); len(targets) > 0 {
		var deadHere addr.List
		d.mu.Lock()
		for _, pr := range targets {
			if pr.Site != d.site {
				continue
			}
			lp, ok := d.procs[pr.Base()]
			if !ok || !lp.alive || d.failedProcs[pr.Base()] {
				deadHere = append(deadHere, pr.Base())
			}
		}
		d.mu.Unlock()
		if len(deadHere) > 0 {
			resp.PutAddressList(fDead, deadHere)
		}
	}
	_ = d.sendPacket(from, ptGbAck, resp)
}

// handleGbCommit processes phase 2 arriving from a remote coordinator.
func (d *Daemon) handleGbCommit(from addr.SiteID, p *msg.Message) {
	d.applyGbCommit(from, p)
}

// applyGbCommit installs the effect of a GBCAST at this site: re-delivers
// reconciled messages, applies the membership change or delivers the user
// payload, notifies local members, and unwedges the group.
func (d *Daemon) applyGbCommit(from addr.SiteID, p *msg.Message) {
	gid := p.GetAddress(fGroup)
	kind := p.GetInt(fKind, 0)
	newView := decodeView(p.GetMessage(fView))
	rec := decodePendingReport(p.GetMessage(fRebcast))
	procs := p.GetAddressList(fProcs)
	wantState := p.GetInt(fWantState, 0) == 1
	reqID := p.GetInt(fReqID, 0)
	sealReq := p.GetInt(fSealReq, 0)
	sealOutcome := p.GetInt(fOutcome, 0)

	d.mu.Lock()
	gs, hosted := d.groups[gid.Base()]
	if kind == gbNonPrimary {
		// The minority coordinator's notice: this partition failed to reach
		// a majority. Wedge into read-only mode (unwedging the flush so held
		// reads drain) and wait for the merge protocol.
		if hosted && !gs.nonPrimary {
			gs.nonPrimary = true
			gs.wedged = false
			held := gs.heldPkts
			gs.heldPkts = nil
			d.bus.Publish(events.Event{Kind: events.PartitionWedge, Group: gid.Base(), View: gs.view.ID})
			d.mu.Unlock()
			for _, h := range held {
				d.dispatchHeld(h)
			}
			d.notifyPrimary(gid.Base(), false)
			return
		}
		d.mu.Unlock()
		return
	}
	if kind == gbResume {
		// Total-wedge recovery: no partition held a majority, nothing can
		// have committed past the last agreed view anywhere, and the resume
		// initiator verified the reachable copies still agree on it — so
		// this copy simply stops being non-primary (and drops any stale
		// wedge a straggling prepare may have left behind).
		if hosted && gs.nonPrimary && newView.ID == gs.view.ID {
			gs.nonPrimary = false
			gs.wedged = false
			held := gs.heldPkts
			gs.heldPkts = nil
			d.mu.Unlock()
			for _, h := range held {
				d.dispatchHeld(h)
			}
			d.notifyPrimary(gid.Base(), true)
			return
		}
		d.mu.Unlock()
		return
	}
	if hosted && gs.nonPrimary {
		// A commit reaching a non-primary copy comes from the primary
		// partition (typically a pre-partition packet retransmitted across
		// the heal). It must not be applied piecemeal — this copy's state is
		// speculative and will be discarded wholesale — but its arrival
		// proves the primary is reachable again, so it triggers the merge.
		auto := d.cfg.Merge == MergeAuto
		d.mu.Unlock()
		if auto {
			go d.mergeGroup(gid.Base())
		}
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
			d.mu.Unlock()
			d.cacheRemoteView(newView)
			d.removeGhosts(gid.Base(), ghosts)
			return
		}
		if known, ok := d.remoteViews[gid.Base()]; ok && newView.ID < known.ID {
			// A pre-partition commit retransmitted across a heal, arriving
			// after the merge discarded this site's copy: the primary has
			// long moved past this view. Installing it would resurrect the
			// stale membership (and swallow the merge's pending join with its
			// state receiver); the merge's own join commit is on its way.
			d.mu.Unlock()
			return
		}
		// The view itself is installed by applyViewChangeLocked below; the
		// stub starts at view id 0 so the commit's view is never mistaken
		// for already-installed.
		gs = newGroupState(core.View{Group: gid.Base(), Name: newView.Name})
		d.groups[gid.Base()] = gs
		if newView.Name != "" {
			d.nameCache[newView.Name] = gid.Base()
		}
	}

	// Record the request id and detect re-executions: a commit for a
	// request this site already applied (re-sent by a coordinator that died
	// mid-fan-out, or re-run by its successor) must not deliver its user
	// payload a second time. View changes are deduplicated by view id.
	dupReq := reqID != 0 && gbCommittedLocked(gs, reqID)
	if reqID != 0 {
		recordGbDoneLocked(gs, reqID)
	}

	// Step 1: re-disseminated messages are delivered before the GBCAST
	// point, to every member of the *old* local view, skipping anything
	// already delivered here and any member that joined after the message
	// was sent (its state-transfer cut covers it).
	for _, rc := range rec.Recent {
		if _, have := gs.recent.Get(rc.ID); have || rc.Packet == nil {
			continue
		}
		d.recordRecentLocked(gs, rc.ID, rc.Packet, rc.Priority)
		pv := core.ViewID(rc.Packet.GetInt(fViewID, 0))
		for _, ms := range gs.members {
			if pv != 0 && pv < ms.joinedView {
				continue
			}
			if ms.redelivered == nil {
				ms.redelivered = make(map[core.MsgID]bool)
			}
			ms.redelivered[rc.ID] = true
			d.deliverDataLocked(ms, rc.Packet)
		}
	}
	// Fenced ABCASTs next: the message could not be completed on this side
	// of the view change, so every member discards its phase-1 state; if
	// this site initiated one, its round is restarted under the new view
	// below (after the membership change installs it), so every member
	// delivers the message after the GBCAST point. The discards run before
	// the completions driven underneath: a driven commit must not stay
	// blocked behind an entry the flush is about to fence (the site-local
	// queue would deliver it after the GBCAST point while other sites
	// deliver it before — the very divergence this protocol closes).
	var fenced []*abSendState
	for _, id := range rec.Fenced {
		d.bus.Publish(events.Event{Kind: events.AbcastFenced, Group: gid.Base(), Msg: id})
		for _, ms := range gs.members {
			d.deliverTotalLocked(gs, ms, ms.total.Discard(id))
		}
		if st, ok := d.pendingAb[id]; ok && st.group == gid.Base() {
			fenced = append(fenced, st)
		}
	}
	for _, ab := range rec.Abcasts {
		if ab.Committed {
			d.recordAbDoneLocked(ab.ID, ab.Priority)
		}
		for _, ms := range gs.members {
			if ab.Committed {
				var payload any = ab.Packet
				d.deliverTotalLocked(gs, ms, ms.total.ForceCommit(ab.ID, payload, ab.Priority))
			} else {
				d.deliverTotalLocked(gs, ms, ms.total.Discard(ab.ID))
			}
		}
		// The flush resolved this in-flight ABCAST (completed or discarded);
		// if this site initiated it, its own protocol round is over. The
		// retire keeps the sender's outstanding count (the Flush API) exact
		// and stops the watchdog from fanning out a conflicting commit.
		if st, ok := d.pendingAb[ab.ID]; ok && st.group == gid.Base() {
			d.retireAbcastLocked(st)
			d.releaseAbSenderLocked(st)
		}
	}

	// Step 2: apply the membership change or deliver the user payload.
	var wrong []wrongRemoval
	switch kind {
	case gbUser, gbConfigHint:
		payload := p.GetMessage(fPayload)
		entry := addr.EntryID(p.GetInt(fEntry, 0))
		sender := p.GetAddress(fSender)
		if payload != nil && !dupReq {
			for _, ms := range gs.members {
				d.deliverPayloadLocked(gs, ms, sender, GBCAST, entry, payload)
			}
		}
	case gbJoin, gbLeave, gbFail, 0:
		wrong = d.applyViewChangeLocked(gs, newView, kind, procs, wantState)
	case gbSeal:
		// Outcome settlement for an earlier request id. An abort marks the
		// target skipped before the mark advances past it; either way the
		// mark advance makes the answer final — the dedupe check will treat
		// any straggling copy of the target as already handled, so it can
		// never commit after being reported aborted.
		if sealReq != 0 {
			if sealOutcome == voteCommitted {
				gs.gbSkipped.Delete(sealReq)
			} else {
				gs.gbSkipped.Put(sealReq, struct{}{})
			}
			recordGbDoneLocked(gs, sealReq)
		}
	}

	// Restart fenced ABCASTs this site initiated: a fresh protocol round
	// (higher attempt — stale proposals to the old round are filtered) under
	// the view just installed. Replacing the pending state under the same
	// lock closes the race with the old round's watchdog: its deferred
	// completion finds the state replaced and stands down. A site whose last
	// member was removed by this very change retires the round instead — the
	// message is dropped, exactly as if its sender had failed.
	var restarts []*abSendState
	var restartPkts []*msg.Message
	for _, st := range fenced {
		d.retireAbcastLocked(st)
		if len(gs.members) == 0 {
			d.releaseAbSenderLocked(st)
			continue
		}
		pkt := st.packet.Clone()
		pkt.PutInt(fViewID, int64(gs.view.ID))
		pkt.PutInt(fAttempt, st.attempt+1)
		nst := d.initiateAbcastLocked(gs, st.id, pkt, nil, st.attempt+1)
		nst.sender = st.sender // carry the Flush accounting without re-counting
		restarts = append(restarts, nst)
		restartPkts = append(restartPkts, pkt)
	}

	// Step 3: unwedge and reprocess any data packets held during the flush.
	if gs.wedged {
		d.bus.Publish(events.Event{Kind: events.FlushComplete, Group: gid.Base(), View: gs.view.ID})
	}
	gs.wedged = false
	held := gs.heldPkts
	gs.heldPkts = nil

	// A site left with no members drops the group state entirely.
	if len(gs.members) == 0 {
		d.dropGroupLocked(gid.Base())
		d.remoteViews[gid.Base()] = newView.Clone()
	}
	d.mu.Unlock()

	for _, h := range held {
		d.dispatchHeld(h)
	}
	for i, nst := range restarts {
		d.transmitAbcast(nst, restartPkts[i])
	}
	d.removeGhosts(gid.Base(), ghosts)
	for _, w := range wrong {
		w := w
		go d.rejoinRemovedMember(gid.Base(), w.proc, w.recv)
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

// removeGhosts asks the group coordinator to remove dead previous-incarnation
// members hosted at this site.
func (d *Daemon) removeGhosts(gid addr.Address, ghosts []addr.Address) {
	if len(ghosts) == 0 {
		return
	}
	d.mu.Lock()
	for _, g := range ghosts {
		d.failedProcs[g] = true
	}
	d.mu.Unlock()
	d.requestRemoval(gid, ghosts, gbFail, false)
}

// reqIDParts splits a stable request id into its requester key (site and
// incarnation, the high word) and per-requester counter (the low word).
func reqIDParts(reqID int64) (requester, counter int64) {
	return reqID >> 32, reqID & 0xffffffff
}

// gbCommittedLocked reports whether a GBCAST request id has already committed
// at this site: its counter is at or below the requester's high-water mark.
// Caller holds d.mu.
func gbCommittedLocked(gs *groupState, reqID int64) bool {
	requester, counter := reqIDParts(reqID)
	return counter <= gs.gbSeen[requester]
}

// Per-site first-hand knowledge of a request id's outcome, carried in gbSeal
// acks (fOutcome) and commits.
const (
	voteUnknown   = int64(0) // no first-hand knowledge
	voteCommitted = int64(1) // this site applied the request's commit
	voteAborted   = int64(2) // the id was sealed aborted / jumped by the mark
)

// gbSkipLimit bounds the per-group memory of individually skipped request
// ids; gbSkipGapCap bounds how large a jump of the high-water mark still
// records each jumped id (a larger jump would mean the requester abandoned
// over a thousand consecutive requests — the remaining ambiguity is accepted
// rather than recorded unboundedly).
const (
	gbSkipLimit  = 4096
	gbSkipGapCap = 1024
)

// gbOutcomeVoteLocked reports this site's first-hand knowledge of a request
// id's outcome. Committed requires positive evidence: the counter must lie
// inside the window this site has actually tracked for the requester
// (gbSeenBase..gbSeen) and not be marked skipped — a site that joined the
// group after the id was minted has no history below its base and must
// answer unknown, not committed. Caller holds d.mu.
func gbOutcomeVoteLocked(gs *groupState, reqID int64) int64 {
	if _, skipped := gs.gbSkipped.Get(reqID); skipped {
		return voteAborted
	}
	requester, counter := reqIDParts(reqID)
	base, tracked := gs.gbSeenBase[requester]
	if !tracked || counter < base {
		return voteUnknown
	}
	if counter <= gs.gbSeen[requester] {
		return voteCommitted
	}
	return voteUnknown
}

// recordGbDoneLocked advances the requester's high-water mark past a
// committed GBCAST request id. Because a requester's commits happen in id
// order (coordinatorCall serializes per group), any id the mark jumps over
// was abandoned by the requester before this one was minted; each jumped id
// is recorded as skipped so an outcome query never mistakes it for
// committed. Caller holds d.mu.
func recordGbDoneLocked(gs *groupState, reqID int64) {
	requester, counter := reqIDParts(reqID)
	if gs.gbSeen == nil {
		gs.gbSeen = make(map[int64]int64)
	}
	if gs.gbSeenBase == nil {
		gs.gbSeenBase = make(map[int64]int64)
	}
	if _, tracked := gs.gbSeenBase[requester]; !tracked {
		gs.gbSeenBase[requester] = counter
	}
	prev := gs.gbSeen[requester]
	if counter <= prev {
		return
	}
	if prev > 0 && counter-prev-1 <= gbSkipGapCap {
		for c := prev + 1; c < counter; c++ {
			gs.gbSkipped.Put(requester<<32|c, struct{}{})
		}
	}
	gs.gbSeen[requester] = counter
}

// dispatchHeld reprocesses a packet whose handling was deferred while the
// group was wedged, routing it by the envelope type remembered at hold time
// (data packets and ABCAST commits can both be held).
func (d *Daemon) dispatchHeld(h heldPacket) {
	switch h.pt {
	case ptAbCommit:
		d.handleAbCommit(h.from, h.pkt)
	default:
		d.handleData(h.from, h.pkt)
	}
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
	joinedHere := make([]*memberState, 0, 2)
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
			causal:     core.NewCausalQueue(newView.RankOf(m), newView.Size()),
			total:      core.NewTotalQueue(0),
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
		joinedHere = append(joinedHere, ms)
	}
	_ = joinedHere
	// Continuing members: reset per-view ordering state to their new rank.
	for a, ms := range gs.members {
		if old.Contains(a) {
			ms.causal.InstallView(newView.RankOf(a), newView.Size())
		}
	}

	// Notify every local member of the new view, in order relative to
	// message deliveries.
	v := newView.Clone()
	for _, ms := range gs.members {
		if ms.proc.deliverView == nil {
			continue
		}
		cb := ms.proc.deliverView
		d.enqueueMember(ms, func() { cb(v) })
	}

	// State transfer: if this site hosts the oldest member and the change
	// added members that asked for state, capture and ship the state from
	// the oldest member's task queue (so the snapshot reflects exactly the
	// deliveries that precede the new view).
	if wantState && kind == gbJoin && newView.Size() > 0 {
		oldest := newView.Coordinator()
		if oldest.Site == d.site && !contains(procs, oldest) {
			if ms, ok := gs.members[oldest.Base()]; ok {
				gid := newView.Group
				joiners := append([]addr.Address(nil), procs...)
				prov := ms.stateProv
				xid := uint64(newView.ID)
				d.enqueue(ms.proc, func() { d.sendStateBlocks(gid, joiners, prov, xid) })
			}
		}
	}

	// Provider fail-over: if this change replaced the group's oldest member
	// (the state-transfer provider) while transfers were still pending, the
	// new oldest member re-ships the state from the beginning. The joiner
	// discards any partial transfer from the dead provider (the blocks carry
	// the attempt id) so it never assembles a mixed state.
	if kind != gbJoin && len(gs.pendingXfer) > 0 && newView.Size() > 0 && old.Size() > 0 &&
		old.Coordinator().Base() != newView.Coordinator().Base() {
		oldest := newView.Coordinator()
		if oldest.Site == d.site {
			if ms, ok := gs.members[oldest.Base()]; ok {
				gid := newView.Group
				joiners := make([]addr.Address, 0, len(gs.pendingXfer))
				for j := range gs.pendingXfer {
					joiners = append(joiners, j)
				}
				prov := ms.stateProv
				xid := uint64(newView.ID)
				d.enqueue(ms.proc, func() { d.sendStateBlocks(gid, joiners, prov, xid) })
			}
		}
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
			pkt := msg.New()
			pkt.PutAddress(fGroup, gid)
			pkt.PutAddress(fSender, j)
			pkt.PutInt(fStateLast, 1)
			pkt.PutInt(fXferID, int64(xferID))
			_ = d.sendPacket(j.Site, ptStateBlock, pkt)
			continue
		}
		for i, b := range blocks {
			pkt := msg.New()
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
	data := p.GetBytes(fStateData)
	last := p.GetInt(fStateLast, 0) == 1
	xid := uint64(p.GetInt(fXferID, 0))

	d.mu.Lock()
	gs, ok := d.groups[gid.Base()]
	if !ok {
		d.mu.Unlock()
		return
	}
	ms, ok := gs.members[target.Base()]
	if !ok || !ms.awaitingState {
		// The member never asked for state, or its transfer already
		// completed: a duplicate fail-over re-send changes nothing.
		d.mu.Unlock()
		return
	}
	if xid < ms.xferID {
		d.mu.Unlock()
		return // straggler from a provider that has been failed over
	}
	if xid > ms.xferID {
		// A new provider restarted the transfer: drop the partial buffer.
		ms.xferID = xid
		ms.xferBuf = nil
	}
	if len(data) > 0 {
		ms.xferBuf = append(ms.xferBuf, append([]byte(nil), data...))
	}
	if !last {
		d.mu.Unlock()
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
			d.enqueue(ms.proc, func() { recv(nil, true) })
		}
		for i, b := range blocks {
			b, lastBlock := b, i == len(blocks)-1
			d.enqueue(ms.proc, func() { recv(b, lastBlock) })
		}
	}
	for _, fn := range held {
		d.enqueue(ms.proc, fn)
	}
	delete(gs.pendingXfer, target.Base())
	sites := gs.view.SitesOf()
	d.mu.Unlock()

	// Tell every member site the transfer completed, so a later coordinator
	// change does not re-trigger it.
	ack := msg.New()
	ack.PutAddress(fGroup, gid.Base())
	ack.PutAddress(fSender, target.Base())
	if raw, err := encodePacket(ptStateAck, ack); err == nil {
		for _, s := range sites {
			if s == d.site {
				continue
			}
			_ = d.sendRaw(s, raw)
		}
	}
}

// handleStateAck records that a joiner's state transfer completed, so this
// site will not re-trigger it if it later hosts the new oldest member.
func (d *Daemon) handleStateAck(from addr.SiteID, p *msg.Message) {
	gid := p.GetAddress(fGroup)
	joiner := p.GetAddress(fSender)
	d.mu.Lock()
	if gs, ok := d.groups[gid.Base()]; ok {
		delete(gs.pendingXfer, joiner.Base())
	}
	d.mu.Unlock()
}

// enterNonPrimary wedges this partition's copy of a group into read-only
// non-primary mode after a failed majority check, and tells the member sites
// the prepare reached to do the same. The gbNonPrimary commit unwedges the
// flush (held reads drain) without installing a view.
func (d *Daemon) enterNonPrimary(gid addr.Address, reports map[addr.SiteID]pendingReport) {
	notice := msg.New()
	notice.PutAddress(fGroup, gid)
	notice.PutInt(fKind, gbNonPrimary)
	if raw, err := encodePacket(ptGbCommit, notice); err == nil {
		for site := range reports {
			if site == d.site {
				continue
			}
			_ = d.sendRaw(site, raw)
		}
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
	var toFinish []*abSendState
	for _, st := range d.pendingAb {
		if st.proposalInLocked(s) {
			toFinish = append(toFinish, st)
		}
	}
	type removal struct {
		gid   addr.Address
		procs []addr.Address
		force bool
	}
	var removals []removal
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
		removals = append(removals, removal{gid, atSite, force})
	}
	d.mu.Unlock()

	for _, st := range toFinish {
		d.completeAbcast(st)
	}
	for _, r := range removals {
		if r.force {
			// This site is stepping in for a coordinator that died
			// mid-protocol (or mid-fan-out): the forced flush finishes the
			// dead coordinator's work.
			d.bus.Publish(events.Event{Kind: events.Takeover, Group: r.gid, Peer: s})
		}
		d.requestRemoval(r.gid, r.procs, gbFail, r.force)
	}
}
