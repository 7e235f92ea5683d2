package protos

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/msg"
)

// errRelayHeld reports that a relayed multicast was parked while its group is
// flushing; it is re-fed (and acknowledged) when the flush ends, so no
// acknowledgement is sent yet.
var errRelayHeld = errors.New("protos: relay held during flush")

// errRelayEarly refuses a relayed CBCAST that would not yet be ordered after
// its sender's previous one (relayCbcastLocked); the sender's daemon asks
// again at the next scan tick.
var errRelayEarly = errors.New("protos: relay ahead of its predecessor")

// Multicast sends an application message to a destination list using the
// selected primitive (Section 3.2 "bc_mcast"). The destination list may
// contain one group address and any number of process addresses. CBCAST and
// ABCAST are asynchronous: the call returns as soon as the message has been
// handed to the network. GBCAST is synchronous: it returns once the
// globally-ordered delivery has been committed at the group.
//
// The daemon takes ownership of payload: it is marshalled into the wire packet
// once and then handed, itself, to the last local destination (the others get
// a Clone), so the caller must not touch it after the call (Process.Cast hands
// over its own stripped clone of the application's message).
func (d *Daemon) Multicast(sender addr.Address, proto Protocol, dests addr.List, entry addr.EntryID, payload *msg.Message) (core.MsgID, error) {
	id, _, err := d.MulticastRequest(sender, proto, dests, entry, payload)
	return id, err
}

// MulticastRequest is Multicast, additionally returning the stable GBCAST
// request id minted for the send (zero for CBCAST/ABCAST, which have no
// request id). The id is returned even when the call fails: that is
// precisely the case in which the caller needs it, to ask RequestOutcome
// what became of the timed-out request.
func (d *Daemon) MulticastRequest(sender addr.Address, proto Protocol, dests addr.List, entry addr.EntryID, payload *msg.Message) (core.MsgID, int64, error) {
	if len(dests) == 0 {
		return core.MsgID{}, 0, ErrEmptyDest
	}
	if payload == nil {
		payload = msg.New()
	}
	d.mu.Lock()
	lp, err := d.liveProcLocked(sender)
	if err != nil {
		d.mu.Unlock()
		return core.MsgID{}, 0, err
	}
	lp.nextSeq++
	id := core.MsgID{Sender: sender.Base(), Seq: lp.nextSeq}
	d.mu.Unlock()

	var group addr.Address
	var procDests addr.List
	for _, a := range dests.Dedup() {
		if a.IsGroup() {
			if !group.IsNil() {
				return core.MsgID{}, 0, fmt.Errorf("%w: at most one group destination", ErrBadProtocol)
			}
			group = a.Base()
		} else {
			procDests = append(procDests, a.Base())
		}
	}

	if group.IsNil() {
		if proto == GBCAST || proto == ABCAST {
			return core.MsgID{}, 0, fmt.Errorf("%w: %v requires a group destination", ErrBadProtocol, proto)
		}
		return id, 0, d.sendPointToPoint(id, procDests, entry, payload)
	}

	if proto == GBCAST {
		if len(procDests) > 0 {
			return core.MsgID{}, 0, fmt.Errorf("%w: GBCAST cannot carry extra process destinations", ErrBadProtocol)
		}
		rid, err := d.sendUserGbcast(sender, group, entry, payload)
		return id, rid, err
	}

	var direct *msg.Message
	if len(procDests) > 0 {
		direct = payload.Clone() // the group send hands payload over to a member
	}
	if err := d.sendGroupMulticast(sender, lp, proto, group, id, entry, payload); err != nil {
		return core.MsgID{}, 0, err
	}
	if err := d.sendPointToPoint(id, procDests, entry, direct); err != nil {
		return core.MsgID{}, 0, err
	}
	return id, 0, nil
}

// sendUserGbcast routes a user-level GBCAST through the group coordinator.
// It returns the stable request id minted for the call — even on error, so
// the caller can later query the request's outcome.
func (d *Daemon) sendUserGbcast(sender, gid addr.Address, entry addr.EntryID, payload *msg.Message) (int64, error) {
	req := &gbPacket{kind: gbUser, group: gid, sender: sender.Base(), entry: entry, payload: payload}
	_, err := d.coordinatorCall(gid, req)
	return req.reqID, err
}

// sendPointToPoint delivers a message directly to a list of processes: a cast
// addressed to processes, or the copies of a reply (the reply itself goes by Reply).
func (d *Daemon) sendPointToPoint(id core.MsgID, dests addr.List, entry addr.EntryID, payload *msg.Message) error {
	if len(dests) == 0 {
		return nil
	}
	pkt := &dataPacket{proto: CBCAST, entry: entry, id: id, dests: dests, payload: payload}
	var remoteSites []addr.SiteID // a handful at most
	for _, a := range dests {
		if a.Site != d.site && !slices.Contains(remoteSites, a.Site) {
			remoteSites = append(remoteSites, a.Site)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.counters.PointToPoints++
	// Marshalled before a local handler, handed the payload, can scribble on it.
	if len(remoteSites) > 0 {
		if err := pkt.encode(); err != nil {
			return err
		}
	}
	d.deliverPointToPointLocked(pkt)
	for _, s := range remoteSites {
		if err := d.sendRaw(s, pkt.raw); err != nil {
			return err
		}
	}
	return nil
}

// deliverPointToPointLocked hands a direct message to those of its
// destinations that live at this site (see deliveryLocked). Caller holds d.mu.
func (d *Daemon) deliverPointToPointLocked(pkt *dataPacket) {
	var last *localProc
	for _, a := range pkt.dests {
		if lp := d.procs[a.Base()]; a.Site == d.site && lp != nil && lp.alive {
			if last != nil {
				d.enqueue(last, d.deliveryLocked(pkt, false))
			}
			last = lp
		}
	}
	if last != nil {
		d.enqueue(last, d.deliveryLocked(pkt, true))
	}
}

// Reply sends a process's answer (kind: the @reply value) to the caller whose
// Cast, numbered session there, it answers: Table 1's "one asynchronous CBCAST",
// counted as a point-to-point send, that no flush holds. The daemon takes over
// payload: a local caller is handed that very message, a remote one its decode.
func (d *Daemon) Reply(sender, caller addr.Address, session int64, kind uint8, payload *msg.Message) error {
	h := replyHeader{caller: caller.Base(), responder: sender.Base(), session: session, kind: kind}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.liveProcLocked(sender); err != nil {
		return err
	}
	d.counters.PointToPoints++
	if h.caller.Site == d.site {
		d.deliverReplyLocked(h, payload)
		return nil
	}
	raw, err := encodeReply(h, payload)
	if err != nil {
		return err
	}
	return d.sendRaw(h.caller.Site, raw)
}

// deliverReplyLocked puts on a reply the system fields its header stands for
// and queues it, as the delivery itself, behind what the caller's process was
// delivered before; that process finds the waiting Cast by session. Caller holds d.mu.
func (d *Daemon) deliverReplyLocked(h replyHeader, m *msg.Message) {
	if lp := d.procs[h.caller]; lp != nil && lp.alive {
		systemFields(m, h.responder, addr.Nil, 0, CBCAST).PutInt(msg.FSession, h.session).PutInt(msg.FReply, int64(h.kind))
		d.counters.Delivered++
		d.enqueue(lp, queued{m: m})
	}
}

// sendGroupMulticast runs the sender side of CBCAST or ABCAST for a group
// destination. While a GBCAST flush is in progress the send waits, so the
// message is unambiguously ordered after the GBCAST point.
func (d *Daemon) sendGroupMulticast(sender addr.Address, lp *localProc, proto Protocol, gid addr.Address, id core.MsgID, entry addr.EntryID, payload *msg.Message) error {
	d.mu.Lock()
	gs, err := d.settledGroupLocked(gid)
	if err == nil && !lp.alive {
		// Killed since Multicast looked, perhaps while waiting out the very
		// flush that removed it: sent now, the cast would go out as a
		// non-member's, and the other sites turn a failed process's away.
		err = ErrDeadProcess
	}
	if err != nil {
		d.mu.Unlock()
		return err
	}
	if gs == nil {
		d.mu.Unlock()
		return d.relayExternalMulticast(sender, lp, proto, gid, id, entry, payload)
	}
	if !gs.phase.primary() {
		// A minority partition is read-only: no multicast may originate
		// here until the merge protocol rejoins the primary.
		d.mu.Unlock()
		return ErrNonPrimary
	}
	ms, isMember := gs.members[sender.Base()]
	if !isMember {
		d.mu.Unlock()
		return d.relayExternalMulticast(sender, lp, proto, gid, id, entry, payload)
	}
	defer d.mu.Unlock()
	pkt := &dataPacket{proto: proto, entry: entry, group: gid, view: gs.view.ID, id: id, rank: gs.view.RankOf(sender), payload: payload}
	switch proto {
	case CBCAST:
		d.counters.CBCASTs++
		_, err = d.sendMemberCbcastLocked(gs, ms, pkt)
	case ABCAST:
		if err = pkt.encode(); err == nil {
			d.initiateAbcastLocked(gs, pkt)
		}
	default:
		err = ErrBadProtocol
	}
	return err
}

// sendMemberCbcastLocked performs a CBCAST send by the local member ms of pkt,
// its own cast or the request of a non-member whose cast it relays (which a
// flush then reconciles and a joiner understands like any other CBCAST of the
// member): the packet is put under the copy's view and its vector timestamp
// ticked for the member, encoded — once, before anybody is handed its payload —,
// shipped to every other member site and delivered to every local member at
// once (the sender never waits). Returns the stamp the cast went out with.
// Caller holds d.mu, so a member's casts enter each peer's transport window in
// the order the copy stamped them.
func (d *Daemon) sendMemberCbcastLocked(gs *groupState, ms *memberState, pkt *dataPacket) (relayStamp, error) {
	pkt.group, pkt.view, pkt.rank = gs.view.Group, gs.view.ID, gs.view.RankOf(ms.proc.addr)
	pkt.vt, pkt.call = gs.causal.Stamp(pkt.rank), 0
	if err := pkt.encode(); err != nil {
		return relayStamp{}, err
	}
	d.recordRecentLocked(gs, pkt.id, pkt.raw, 0)
	d.fanoutRaw(gs.view.SitesOf(), pkt.raw)
	// To the stamping member and the members beside it alike: the clock just
	// stamped covers exactly what the copy has released, to all of them.
	d.deliverDataLocked(gs, pkt)
	return relayStamp{view: pkt.view, rank: pkt.rank, seq: pkt.vt.Get(pkt.rank)}, nil
}

// relayExternalMulticast handles a group multicast whose sender is not a
// member of the group (or whose site hosts no members): the message is
// forwarded to the group's coordinator site, which fans it out using its
// authoritative view and acknowledges the relay. A refusal — the coordinator
// copy is wedged in a non-primary partition, or the addressed site no longer
// hosts the group — travels back as the sentinel error instead of being
// silently dropped; a stale cached view is refreshed and the relay retried
// once. A relayed CBCAST is sent as the relaying member's own; the order of
// one sender's CBCASTs across relay sites is kept by naming, in each relay,
// the stamp the previous one was acknowledged with (relayCbcastLocked).
func (d *Daemon) relayExternalMulticast(sender addr.Address, lp *localProc, proto Protocol, gid addr.Address, id core.MsgID, entry addr.EntryID, payload *msg.Message) error {
	view, ok := d.CurrentView(gid)
	if !ok {
		v, err := d.RefreshGroupView(gid)
		if err != nil {
			return err
		}
		view = v
	}
	if proto == CBCAST {
		// Serialize this sender's relays across the acknowledged exchange:
		// each names the stamp of the one before it.
		lp.relayMu.Lock()
		defer lp.relayMu.Unlock()
	}
	for attempt := 0; ; attempt++ {
		d.mu.Lock()
		coord := d.actingCoordinator(view)
		d.mu.Unlock()
		if coord.IsNil() {
			return ErrGroupVanished
		}

		pkt := &dataPacket{proto: proto, entry: entry, group: gid, view: view.ID, id: id, rank: -1, payload: payload}
		if proto == CBCAST {
			pkt.after = lp.relayed[gid]
		}
		stamp, err := d.relayCall(coord.Site, pkt)
		if err == nil {
			if proto == CBCAST {
				lp.relayed[gid] = stamp
			}
			return nil
		}
		if errors.Is(err, ErrUnknownGroup) && attempt == 0 {
			// The cached view is stale: the addressed site no longer hosts
			// the group. Refresh from the sites that do and retry once.
			if v, rerr := d.RefreshGroupView(gid); rerr == nil {
				view = v
				continue
			}
		}
		return err
	}
}

// relayCall ships a relayed multicast to the coordinator site — or, when that
// is this site, hands it to the same handler a peer's goes to — and waits for
// its acknowledgement, which for a CBCAST carries the stamp it was sent with.
// A relay parked by a flush is acknowledged when the flush re-feeds it, so the
// caller learns the post-flush outcome, a refusal by a copy the flush left
// non-primary included. A relay refused as early is asked again, in the same
// call, at every scan tick until the call's deadline.
func (d *Daemon) relayCall(site addr.SiteID, pkt *dataPacket) (relayStamp, error) {
	id, c := d.newCall(site, ptRelayAck)
	defer d.dropCall(id)
	pkt.call = id
	for {
		var err error
		if site == d.site {
			d.mu.Lock()
			d.handleDataLocked(site, pkt)
			d.mu.Unlock()
		} else if err = pkt.encode(); err == nil {
			err = d.sendRaw(site, pkt.raw)
		}
		var a answer
		if err == nil {
			a, err = c.await()
		}
		if !errors.Is(err, errRelayEarly) {
			return a.stamp, err
		}
		if tick, err := d.nextTick(); err != nil || tick >= c.deadline {
			return relayStamp{}, cmp.Or(err, ErrTimeout)
		}
	}
}

// relayMulticastLocked runs at the coordinator site: it fans an external sender's
// multicast out to the group using the current view. A refusal is returned
// (and acknowledged back to the sending daemon by handleDataLocked) instead of
// silently dropping the message: ErrUnknownGroup when this site does not host
// the group — the sender's cached view was stale — and ErrNonPrimary when this
// copy is stranded read-only in a minority partition and must not fan anything
// out under its stale (possibly split-brain) view. While the group is
// flushing, the relay is parked to be re-fed after the flush and errRelayHeld
// returned: its acknowledgement is deferred with the packet. A CBCAST's stamp
// is returned for the acknowledgement. Caller holds d.mu.
func (d *Daemon) relayMulticastLocked(from addr.SiteID, pkt *dataPacket) (relayStamp, error) {
	gs := d.groups[pkt.group.Base()]
	switch {
	case gs == nil:
		return relayStamp{}, ErrUnknownGroup
	case gs.phase == phaseFlushing:
		gs.parked.pkts = append(gs.parked.pkts, heldPacket{from: from, pkt: pkt})
		return relayStamp{}, errRelayHeld
	case !gs.phase.primary():
		return relayStamp{}, ErrNonPrimary
	}
	switch pkt.proto {
	case CBCAST:
		return d.relayCbcastLocked(gs, pkt)
	case ABCAST:
		// The round runs under this site's view, whatever view the sender had
		// cached: the member sites turn away phase 1 of a view they have closed.
		pkt.view, pkt.call = gs.view.ID, 0 // a new header, no longer a request
		if err := pkt.encode(); err != nil {
			return relayStamp{}, err
		}
		d.initiateAbcastLocked(gs, pkt)
		return relayStamp{}, nil
	}
	return relayStamp{}, ErrBadProtocol
}

// relayCbcastLocked sends an external sender's CBCAST as a CBCAST of the
// oldest live member hosted here, so two relays through one member are
// ordered by its clock. Across relay sites the request names the stamp of the
// sender's previous acknowledged cast, and the relay is refused as early until
// that cast has been delivered to the member: every timestamp the member
// issues from then on orders the new cast after it. A stamp from a view
// already closed holds nothing back — the flush that closed the view delivered
// the cast wherever it will ever be. Caller holds d.mu.
func (d *Daemon) relayCbcastLocked(gs *groupState, pkt *dataPacket) (relayStamp, error) {
	for _, m := range gs.view.Members {
		ms := gs.members[m.Base()]
		if ms == nil || !ms.proc.alive {
			continue
		}
		if after := pkt.after; after.view > gs.view.ID ||
			after.view == gs.view.ID && gs.causal.Clock().Get(after.rank) < after.seq {
			return relayStamp{}, errRelayEarly
		}
		d.counters.CBCASTs++ // at the site that sends it, like a relayed ABCAST
		return d.sendMemberCbcastLocked(gs, ms, pkt)
	}
	return relayStamp{}, ErrUnknownGroup
}

// ---------------------------------------------------------------------------
// ABCAST initiator side

// initiateAbcastLocked runs the initiator's side of phase 1 for one ABCAST:
// it sets up the round in the copy, proposes locally and ships the encoded
// packet to the remote member sites, or — with nobody to wait for — completes
// the round at once. Until it is retired the round holds its sender's Flush.
// The packet's attempt is 0 for a fresh ABCAST and counts up when a GBCAST
// flush fences the message and restarts it. Every other member site is a
// target, a suspected one too: one that never answers holds the round until
// the flush that removes it drives or fences the message (reconcile), or the
// scan tick completes the round at its deadline. Caller holds d.mu.
func (d *Daemon) initiateAbcastLocked(gs *groupState, pkt *dataPacket) {
	st := &abSendState{
		maxPrio:  gs.total.Propose(pkt.id, pkt),
		packet:   pkt,
		deadline: d.deadlineLocked(d.cfg.CallTimeout),
	}
	for _, s := range gs.view.SitesOf() {
		if s != d.site {
			st.targets = append(st.targets, s)
		}
	}
	st.waiting = append(st.waiting, st.targets...)
	gs.rounds[pkt.id] = st
	if pkt.attempt == 0 {
		// A fence restart re-runs the protocol for a message already counted
		// when it was first initiated.
		d.counters.ABCASTs++
	}
	if len(st.targets) == 0 {
		st.done = true
		d.completeAbcastLocked(gs, st)
		return
	}
	// Phase 1 was marshalled once and is shared by every remote member site
	// (the target list is fixed once the round is set up).
	d.fanoutRaw(st.targets, pkt.raw)
}

// retire ends an initiator round, whichever way it ends: the round leaves the
// copy and is marked done, so it (and the packet it holds) is garbage at once.
// Caller holds d.mu.
func (gs *groupState) retire(st *abSendState) {
	if id := st.packet.id; gs.rounds[id] == st {
		delete(gs.rounds, id)
	}
	st.done = true
}

// proposalInLocked records that site s answered phase 1 and reports whether
// that completed the round: the caller must then call completeAbcastLocked.
// Caller holds d.mu.
func (st *abSendState) proposalInLocked(s addr.SiteID) bool {
	i := slices.Index(st.waiting, s)
	if i < 0 {
		return false
	}
	last := len(st.waiting) - 1
	st.waiting[i] = st.waiting[last]
	st.waiting = st.waiting[:last]
	if last == 0 && !st.done {
		st.done = true
		return true
	}
	return false
}

// handleAbProposeLocked processes a phase-1 response at the initiator.
// Proposals carry the attempt number of the phase-1 packet they answer; a
// response to a previous attempt (sent before a GBCAST flush fenced and
// restarted the ABCAST) is ignored, so the final priority is always the
// maximum over one coherent proposal round. Caller holds d.mu.
func (d *Daemon) handleAbProposeLocked(from addr.SiteID, r abRecord) {
	gs, ok := d.groups[r.group.Base()]
	if !ok {
		return
	}
	st, ok := gs.rounds[r.id]
	if !ok || r.attempt != st.packet.attempt {
		return
	}
	if r.prio > st.maxPrio {
		st.maxPrio = r.prio
	}
	if st.proposalInLocked(from) {
		d.completeAbcastLocked(gs, st)
	}
}

// completeAbcastLocked ends a round of the copy gs whose proposals are in (or
// whose deadline has passed): it retires the round, sends phase 2 (the final
// priority) to every destination site and applies it to the copy, all in the
// hold that retired it — a flush report built at this site finds the round
// pending or its commit applied, never neither. While the copy is flushing the
// completion is parked on it instead: the flush owns the fate of every
// in-flight ABCAST (it either drives the commit itself or fences the message
// behind the new view), and a commit fanned out mid-flush would be held at
// every wedged site and then discarded, losing the message. When the flush
// ends the round comes back here and is found retired (the flush committed
// it), replaced (the flush fenced and restarted it), dropped with its copy, or
// still its own, in which case it proceeds normally. Caller holds d.mu.
func (d *Daemon) completeAbcastLocked(gs *groupState, st *abSendState) {
	id := st.packet.id
	if gs.rounds[id] != st {
		// Retired by a flush's drive branch, restarted by its fence branch, or
		// dropped with the copy; either way this protocol round is over.
		return
	}
	if gs.phase == phaseFlushing && !d.closed {
		gs.parked.rounds = append(gs.parked.rounds, st)
		return
	}
	gs.retire(st)
	d.fanoutRaw(st.targets, abRecord{group: gs.view.Group, id: id, prio: st.maxPrio}.encode(ptAbCommit))
	d.applyAbCommitLocked(gs, id, st.maxPrio)
}

// handleAbCommitLocked applies an ABCAST final priority at a destination site,
// a commit just arrived or re-fed by the flush that parked it. Caller holds
// d.mu.
func (d *Daemon) handleAbCommitLocked(from addr.SiteID, r abRecord) {
	gs, ok := d.groups[r.group.Base()]
	switch {
	case !ok:
	case gs.phase == phaseFlushing:
		gs.parked.pkts = append(gs.parked.pkts, heldPacket{from: from, commit: r})
	default:
		d.applyAbCommitLocked(gs, r.id, r.prio)
	}
}

// applyAbCommitLocked records an ABCAST's final priority and delivers what it
// releases from the copy's total-order queue. Caller holds d.mu.
func (d *Daemon) applyAbCommitLocked(gs *groupState, id core.MsgID, final uint64) {
	gs.recordFinal(id, final)
	d.deliverTotalLocked(gs, gs.total.Commit(id, final))
}

// deliverTotalLocked hands messages drained from the copy's total-order
// queue to its members. Caller holds d.mu.
func (d *Daemon) deliverTotalLocked(gs *groupState, dels []core.TotalDelivery) {
	for _, del := range dels {
		if pkt, _ := del.Payload.(*dataPacket); pkt != nil {
			d.recordRecentLocked(gs, del.ID, pkt.raw, del.Priority)
			d.deliverDataLocked(gs, pkt)
		}
	}
}

// ---------------------------------------------------------------------------
// Straggler re-solicitation

// recordFinal remembers the final priority of an ABCAST commit applied to the
// copy (bounded memory), so this site can answer a re-solicitation for it even
// after the initiator is gone. Caller holds d.mu.
func (gs *groupState) recordFinal(id core.MsgID, final uint64) {
	if _, ok := gs.finals.Get(id); !ok {
		gs.finals.Put(id, final)
	}
}

// handleAbResolicitLocked answers a member site stuck behind an uncommitted
// straggler at the head of its total-order queue: if this site's copy of the
// group has applied the commit (or completed the protocol as its initiator),
// it re-sends the commit record. While the protocol is genuinely still in
// progress the request is ignored — the commit will arrive on its own — and an
// unknown id, or a group this site no longer hosts, is left for the next
// GBCAST flush to resolve. Caller holds d.mu.
func (d *Daemon) handleAbResolicitLocked(from addr.SiteID, r abRecord) {
	if gs, ok := d.groups[r.group.Base()]; ok {
		if final, done := gs.finals.Get(r.id); done {
			_ = d.sendRaw(from, abRecord{group: r.group.Base(), id: r.id, prio: final}.encode(ptAbCommit))
		}
	}
}

// runResolicitScan periodically checks every group copy's total-order
// queue for a straggler: an uncommitted message that has blocked the head of
// the queue (and therefore every later committed delivery) for longer than
// ResolicitAfter. For each straggler it re-solicits the commit record —
// from the initiator's site first, rotating to the other member sites if the
// initiator does not answer — so a slow or lost proposal round no longer
// stalls the copy until the next flush.
//
// Its ticker is the daemon's one clock: every deadline is a count of its ticks
// (deadlineLocked), and every retry waits for the next one (nextTick).
func (d *Daemon) runResolicitScan() {
	defer d.wg.Done()
	t := time.NewTicker(d.scanInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stopScan:
			return
		case <-t.C:
			d.resolicitStragglers()
		}
	}
}

// deadlineLocked is the scan tick a wait of dur starting now ends at. Ticks
// are dropped, never added, and the first only ends the period under way, so
// it fires late, never early (bar a tick due, uncounted). Caller holds d.mu.
func (d *Daemon) deadlineLocked(dur time.Duration) uint64 {
	return d.tick + uint64((dur+d.scanInterval-1)/d.scanInterval) + 1
}

// nextTick is how a retry waits: for the scan tick after the current one,
// whose count it returns, or for Close (ErrClosed).
func (d *Daemon) nextTick() (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for t := d.tick; d.tick == t && !d.closed; {
		d.wake.Wait()
	}
	if d.closed {
		return 0, ErrClosed
	}
	return d.tick, nil
}

// resolicitStragglers performs one scan round of runResolicitScan: it counts
// the tick and wakes what waits for it. Besides the stragglers it ends the
// calls and the ABCAST rounds whose deadline has come, feeds inWatchdog to a
// copy whose flush has been open to flushDeadline, and has the transport
// forget a suspected site that no copy's view lists: what waits for its ack
// never gets one, and resending it is all a dead site would cost.
func (d *Daemon) resolicitStragglers() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.tick++
	d.wake.Broadcast()
	d.endCallsLocked(ErrTimeout, func(c *pendingCall) bool { return d.tick >= c.deadline })
	for s := range d.suspected {
		listed := false
		for _, gs := range d.groups {
			listed = listed || slices.ContainsFunc(gs.view.Members, func(m addr.Address) bool { return m.Site == s })
		}
		if !listed {
			d.tr.Forget(s)
		}
	}
	for gid, gs := range d.groups {
		for _, st := range gs.rounds {
			if !st.done && d.tick >= st.deadline {
				st.done = true
				d.completeAbcastLocked(gs, st)
			}
		}
		if gs.phase == phaseFlushing && d.tick >= gs.flushDeadline {
			d.step(gs, inWatchdog)
		}
		if gs.phase != phaseNormal {
			continue
		}
		id, _, blocked := gs.total.HeadBlocked()
		if !blocked {
			gs.blockedID = core.MsgID{}
			continue
		}
		if id != gs.blockedID {
			gs.blockedID = id
			gs.resolicitAt = d.deadlineLocked(d.cfg.ResolicitAfter)
			gs.resolicits = 0
			continue
		}
		if d.tick < gs.resolicitAt {
			continue
		}
		gs.resolicitAt = d.deadlineLocked(d.cfg.ResolicitAfter) // one solicitation per ResolicitAfter
		if final, ok := gs.finals.Get(id); ok {
			// A past commit within the bounded record (one that reached this
			// site ahead of the message) already knows the outcome: apply it
			// directly.
			d.applyAbCommitLocked(gs, id, final)
			continue
		}
		to := d.resolicitTargetLocked(gs, id.Sender, gs.resolicits)
		gs.resolicits++
		if to != 0 {
			d.bus.Publish(events.Event{Kind: events.AbcastResolicit, Group: gid, Peer: to, Msg: id})
			_ = d.sendRaw(to, abRecord{group: gid, id: id}.encode(ptAbResolicit))
		}
	}
}

// resolicitTargetLocked picks the site to ask about a straggler: the sender's
// site first (for a member ABCAST that is the initiator), then the group's
// other member sites in view order — any site that applied the commit can
// answer from its record, which is what lets a receiver route around a
// paused or dead initiator link. Caller holds d.mu.
func (d *Daemon) resolicitTargetLocked(gs *groupState, sender addr.Address, attempt int) addr.SiteID {
	seen := map[addr.SiteID]bool{d.site: true}
	var cands []addr.SiteID
	if sender.Site != d.site {
		seen[sender.Site] = true
		cands = append(cands, sender.Site)
	}
	for _, s := range gs.view.SitesOf() {
		if !seen[s] {
			seen[s] = true
			cands = append(cands, s)
		}
	}
	if len(cands) == 0 {
		return 0
	}
	return cands[attempt%len(cands)]
}

// ---------------------------------------------------------------------------
// Receive path

// handleDataLocked processes a ptData packet — a point-to-point message, a
// relayed external multicast, a CBCAST, or ABCAST phase 1 — just arrived or
// re-fed by the flush that parked it. Caller holds d.mu.
func (d *Daemon) handleDataLocked(from addr.SiteID, pkt *dataPacket) {
	if pkt.group.IsNil() {
		d.deliverPointToPointLocked(pkt)
		return
	}
	if callID := pkt.call; callID != 0 {
		// Acknowledge the relay (it clears pkt.call) so the sender's daemon learns
		// its fate; a held relay is acknowledged when the flush re-feeds it.
		switch stamp, err := d.relayMulticastLocked(from, pkt); {
		case errors.Is(err, errRelayHeld):
		case err != nil:
			d.answerLocked(from, callID, ptError, answer{err: err})
		default:
			d.answerLocked(from, callID, ptRelayAck, answer{stamp: stamp})
		}
		return
	}
	gs, ok := d.groups[pkt.group.Base()]
	if !ok {
		return
	}
	if sender := pkt.id.Sender; d.failedProcs[sender.Base()] && (pkt.proto != CBCAST || gs.view.Contains(sender)) {
		// A failure that has already been observed: messages from the
		// failed process must never be delivered afterwards (Section 2.2).
		// A CBCAST relayed for it goes in all the same: it holds a slot in the
		// relaying member's clock, and processCbcastLocked withholds the callback.
		return
	}
	if gs.phase == phaseFlushing {
		gs.parked.pkts = append(gs.parked.pkts, heldPacket{from: from, pkt: pkt})
		return
	}
	if pkt.view < gs.view.ID {
		// A packet of a view this copy has closed — parked by the flush, or
		// still in the transport at the commit — was settled by that flush. A
		// CBCAST fed to the new view's clock could read as its member's next
		// message, and the real one would then never be delivered; an ABCAST's
		// phase 1 would be filed ahead of the restart the flush ordered, which
		// then delivers the old packet, closed view id and all, and a member
		// that joined in the new view is refused it.
		return
	}
	switch pkt.proto {
	case CBCAST:
		d.processCbcastLocked(gs, pkt)
	case ABCAST:
		resp := abRecord{group: pkt.group, id: pkt.id, prio: gs.total.Propose(pkt.id, pkt), attempt: pkt.attempt}
		_ = d.sendRaw(from, resp.encode(ptAbPropose))
	}
}

// processCbcastLocked feeds a CBCAST into the copy's causal queue and
// delivers whatever becomes deliverable. One whose timestamp is not the size
// of the view it names is malformed, and dropped. Caller holds d.mu.
func (d *Daemon) processCbcastLocked(gs *groupState, pkt *dataPacket) {
	if pkt.view == gs.view.ID && len(pkt.vt) != gs.view.Size() {
		return
	}
	in := core.CausalIncoming{ID: pkt.id, SenderRank: pkt.rank, VT: pkt.vt, Payload: pkt}
	for _, out := range gs.causal.Receive(in) {
		// Relayed for a process since observed to fail, it is as if dropped at
		// the door, but for the clock Receive has advanced.
		if opkt := out.Payload.(*dataPacket); !d.failedProcs[opkt.id.Sender.Base()] {
			d.recordRecentLocked(gs, out.ID, opkt.raw, 0)
			d.deliverDataLocked(gs, opkt)
		}
	}
}

// ---------------------------------------------------------------------------
// Delivery helpers

// systemFields puts the toolkit's system fields on a message about to be
// delivered and returns it.
func systemFields(m *msg.Message, sender, group addr.Address, viewID core.ViewID, proto Protocol) *msg.Message {
	m.PutAddress(msg.FSender, sender.Base())
	if !group.IsNil() {
		m.PutAddress(msg.FGroup, group)
		m.PutInt(msg.FViewID, int64(viewID))
	}
	return m.PutInt(msg.FProtocol, int64(proto))
}

// buildDelivery constructs the application-visible message for a recipient
// that is not a packet's last: a Clone of the payload (a table of its own over
// values that are immutable and shared), so a handler may mutate what it got.
func (d *Daemon) buildDelivery(payload *msg.Message, sender, group addr.Address, viewID core.ViewID, proto Protocol) *msg.Message {
	return systemFields(payload.Clone(), sender, group, viewID, proto)
}

// deliveryLocked counts and returns one local recipient's delivery of a data
// packet: for the last the packet's payload itself — nothing reads it after
// this; the record is the packet's bytes —, for one before it a clone.
func (d *Daemon) deliveryLocked(pkt *dataPacket, last bool) queued {
	d.counters.Delivered++
	if last {
		return queued{entry: pkt.entry, m: systemFields(pkt.payload, pkt.id.Sender, pkt.group, pkt.view, pkt.proto)}
	}
	return queued{entry: pkt.entry, m: d.buildDelivery(pkt.payload, pkt.id.Sender, pkt.group, pkt.view, pkt.proto)}
}

// deliverDataLocked delivers a group data packet the copy's ordering has
// released to each local member that was in the group when it was sent; one
// that joined later is skipped (memberState.joinedView). Caller holds d.mu.
func (d *Daemon) deliverDataLocked(gs *groupState, pkt *dataPacket) {
	var last *memberState
	for _, ms := range gs.members {
		if pkt.view == 0 || pkt.view >= ms.joinedView {
			if last != nil {
				d.enqueueMember(last, d.deliveryLocked(pkt, false))
			}
			last = ms
		}
	}
	if last != nil {
		d.enqueueMember(last, d.deliveryLocked(pkt, true))
	}
}

// enqueueMember schedules a delivery for a member, holding it if the member
// is still waiting for its state transfer. Caller holds d.mu.
func (d *Daemon) enqueueMember(ms *memberState, q queued) {
	if ms.awaitingState {
		ms.held = append(ms.held, q)
		return
	}
	d.enqueue(ms.proc, q)
}

// recordRecentLocked remembers a delivered data packet, as its bytes, so a
// GBCAST flush can re-disseminate it to members that missed it. For an ABCAST,
// prio is the final priority it was delivered at (0 for CBCAST and
// point-to-point). Caller holds d.mu.
func (d *Daemon) recordRecentLocked(gs *groupState, id core.MsgID, raw []byte, prio uint64) {
	if _, ok := gs.recent.Get(id); !ok {
		gs.recent.Put(id, recentEntry{raw: raw, prio: prio})
	}
}

// Flush blocks until the sender's outstanding asynchronous multicasts have
// been transmitted and committed (Section 3.2, footnote 3: flush is invoked
// before interacting with the external world or writing stable storage), or
// for CallTimeout (ErrTimeout). Its ABCASTs are outstanding while any copy at
// this site holds a round for one, a relay through a copy here included.
// Transmitted is site-wide: it polls until all this site sent, whoever cast
// it, is acknowledged, so beside a steady sender it may time out.
func (d *Daemon) Flush(sender addr.Address) error {
	deadline := time.Now().Add(d.cfg.CallTimeout)
	for {
		d.mu.Lock()
		_, ok := d.procs[sender.Base()]
		outstanding, closed := 0, d.closed
		for _, gs := range d.groups {
			for id := range gs.rounds {
				outstanding += int(bit(id.Sender == sender.Base()))
			}
		}
		d.mu.Unlock()
		if !ok {
			return ErrUnknownProc
		}
		if closed {
			return ErrClosed
		}
		if outstanding == 0 && d.tr.Unacked() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return ErrTimeout
		}
		time.Sleep(time.Millisecond)
	}
}
