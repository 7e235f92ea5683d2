package protos

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
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
// handed to the network. An ABCAST is a CBCAST of the view's oldest member, and
// that member's site (the holder) stamps it: one cast there is stamped and
// delivered at once; one cast anywhere else is submitted to the holder with the
// clock of what its site had delivered, stamped once the holder has delivered
// all of that, and delivered here when it comes back stamped (Flush waits for
// that). So an ABCAST follows everything its sender had delivered, and a CBCAST
// the sender casts after its Flush follows the ABCAST. GBCAST is synchronous:
// it returns once the globally-ordered delivery has been committed at the
// group.
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
	e := d.ask(gbPacket{kind: gbUser, group: gid, sender: sender.Base(), entry: entry, payload: payload})
	return e.reqID, e.err
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
// and hands it to the caller's process, which files it with the waiting Cast it
// finds by session, ahead of anything queued there. Caller holds d.mu.
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
	pkt := &dataPacket{proto: proto, entry: entry, group: gid, view: gs.view.ID, id: id, payload: payload}
	switch proto {
	case CBCAST:
		d.counters.CBCASTs++
		_, err = d.sendMemberCbcastLocked(gs, gs.view.RankOf(ms.proc.addr), pkt)
	case ABCAST:
		d.counters.ABCASTs++
		err = d.castAbcastLocked(gs, pkt)
	default:
		err = ErrBadProtocol
	}
	return err
}

// sendMemberCbcastLocked performs a CBCAST send by the local member of the
// given rank of pkt: its own cast, the request of a non-member whose cast it
// relays (which a flush then reconciles and a joiner understands like any
// other CBCAST of the member), or at rank 0 an ABCAST the holder stamps. The
// packet is put under the copy's view and its vector timestamp ticked for the
// member, encoded — once, before anybody is handed its payload —, shipped to
// every other member site and delivered to every local member at once (the
// sender never waits). Returns the stamp the cast went out with. Caller holds
// d.mu, so a member's casts enter each peer's transport window in the order
// the copy stamped them.
func (d *Daemon) sendMemberCbcastLocked(gs *groupState, rank int, pkt *dataPacket) (relayStamp, error) {
	pkt.group, pkt.view, pkt.rank = gs.view.Group, gs.view.ID, int16(rank)
	pkt.vt, pkt.call = gs.causal.Stamp(rank, pkt.vtBuf[:0]), 0
	if err := pkt.encode(); err != nil {
		return relayStamp{}, err
	}
	d.fanoutRaw(gs.view.SitesOf(), pkt.raw)
	// To the stamping member and the members beside it alike: the clock just
	// stamped covers exactly what the copy has released, to all of them.
	d.releaseLocked(gs, pkt)
	return relayStamp{view: pkt.view, rank: rank, seq: pkt.vt.Get(rank)}, nil
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
		gs.parked = append(gs.parked, heldPacket{from: from, pkt: pkt})
		return relayStamp{}, errRelayHeld
	case !gs.phase.primary():
		return relayStamp{}, ErrNonPrimary
	}
	switch pkt.proto {
	case CBCAST:
		return d.relayCbcastLocked(gs, pkt)
	case ABCAST:
		// Cast as a member's here would be, under this site's view whatever view
		// the sender had cached: the member sites turn away a packet of a view
		// they have closed.
		d.counters.ABCASTs++
		return relayStamp{}, d.castAbcastLocked(gs, pkt)
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
		return d.sendMemberCbcastLocked(gs, gs.view.RankOf(m), pkt)
	}
	return relayStamp{}, ErrUnknownGroup
}

// ---------------------------------------------------------------------------
// ABCAST: the holder's CBCAST

// holder is the site that stamps the ABCASTs of a view, as CBCASTs of rank 0:
// its oldest member's, whose causal order chains them into one total order.
func holder(v core.View) addr.SiteID { return v.Coordinator().Site }

// castAbcastLocked sends an ABCAST of the copy gs, a member's cast or one this
// site relays for a non-member. The holder stamps it at once; any other site
// keeps it among the copy's submissions and sends it to the holder alone with
// the copy's clock as released, which the holder's must dominate before it
// stamps it and sends it back with everybody else's. Caller holds d.mu.
func (d *Daemon) castAbcastLocked(gs *groupState, pkt *dataPacket) error {
	h := holder(gs.view)
	if h == d.site {
		return d.stampAbcastLocked(gs, pkt)
	}
	pkt.view, pkt.rank, pkt.call = gs.view.ID, -1, 0 // a relay's new header, no longer a request
	pkt.vt = gs.causal.Stamp(-1, pkt.vtBuf[:0])
	if err := pkt.encode(); err != nil {
		return err
	}
	gs.submitted[pkt.id] = pkt
	return d.sendRaw(h, pkt.raw)
}

// stampAbcastLocked is the holder's step for an ABCAST of the copy gs, its own
// or a submission its clock now dominates: it casts it as rank 0's CBCAST,
// fanned out and delivered here in one hold, so the next one it stamps follows
// it. It refuses one delivered here already, and one whose sender is known to
// have failed (Section 2.2, applied where the order is decided). Caller holds
// d.mu.
func (d *Daemon) stampAbcastLocked(gs *groupState, pkt *dataPacket) error {
	if _, done := gs.recent.Get(pkt.id); done || d.failedProcs[pkt.id.Sender.Base()] {
		return nil
	}
	_, err := d.sendMemberCbcastLocked(gs, 0, pkt)
	return err
}

// resubmitLocked follows a commit at the copy gs: each of its submissions goes
// again, in the order they were cast, to the holder the view names (this site
// stamps them itself when it is the holder now), which turns away one it has
// stamped or still holds. A submission of a process since observed to fail is
// dropped, as the holder would refuse it. Caller holds d.mu.
func (d *Daemon) resubmitLocked(gs *groupState) {
	if len(gs.submitted) == 0 {
		return
	}
	ids := slices.SortedFunc(maps.Keys(gs.submitted), func(a, b core.MsgID) int {
		return cmp.Or(a.Sender.Compare(b.Sender), cmp.Compare(a.Seq, b.Seq))
	})
	h := holder(gs.view)
	for _, id := range ids {
		switch pkt := gs.submitted[id]; {
		case d.failedProcs[id.Sender.Base()]:
			delete(gs.submitted, id)
		case h != d.site:
			_ = d.sendRaw(h, pkt.raw)
		default:
			_ = d.stampAbcastLocked(gs, pkt) // re-headed, nothing is marshalled
		}
	}
}

// runScan ticks the daemon's one clock: every deadline is a count of its ticks
// (deadlineLocked), and every retry waits for the next one.
func (d *Daemon) runScan() {
	defer d.wg.Done()
	t := time.NewTicker(d.scanInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stopScan:
			return
		case <-t.C:
			d.scanTick()
		}
	}
}

// deadlineLocked is the scan tick a wait of dur starting now ends at. Ticks
// are dropped, never added, and the first only ends the period under way, so
// it fires late, never early (bar a tick due, uncounted). Caller holds d.mu.
func (d *Daemon) deadlineLocked(dur time.Duration) uint64 {
	return d.tick + uint64((dur+d.scanInterval-1)/d.scanInterval) + 1
}

// nextTick is how a relay's retry waits: for the scan tick after the current
// one, whose count it returns, or for Close (ErrClosed).
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

// scanTick is one tick of runScan: it counts the tick and wakes what waits for
// it, ends the calls whose deadline has come, feeds inWatchdog to a copy whose
// flush has been open to flushDeadline, runs each copy's GBCAST round on,
// files the retry of each parked member that has none in flight, moves the
// requests on, and has the transport forget a suspected site that no copy's
// view lists: what waits for its ack never gets one, and resending it is all a
// dead site would cost.
func (d *Daemon) scanTick() {
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
	for _, gs := range d.groups {
		if gs.phase == phaseFlushing && d.tick >= gs.flushDeadline {
			d.step(gs, inWatchdog)
		}
		d.runRoundsLocked(gs)
	}
	d.retryParkedLocked()
	d.driveLocked()
}

// ---------------------------------------------------------------------------
// Receive path

// handleDataLocked processes a ptData packet — a point-to-point message, a
// relayed external multicast, a CBCAST, or an ABCAST, stamped or a submission
// — just arrived or re-fed by the flush that parked it. Caller holds d.mu.
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
	if sender := pkt.id.Sender; pkt.proto == CBCAST && d.failedProcs[sender.Base()] && gs.view.Contains(sender) {
		// A failure that has already been observed: messages from the failed
		// process must never be delivered afterwards (Section 2.2). A CBCAST
		// relayed for it goes in all the same: it holds a slot in the relaying
		// member's clock, and processCbcastLocked withholds the callback. For
		// an ABCAST the rule is applied where the order is decided: the holder
		// refuses a submission when it would stamp it, and an ABCAST it
		// stamped goes in wherever it arrives.
		return
	}
	switch {
	case gs.phase == phaseFlushing:
		gs.parked = append(gs.parked, heldPacket{from: from, pkt: pkt})
	case pkt.proto == ABCAST && pkt.rank < 0: // a submission
		// Stamped under the holder's view, whatever view its submitter had: a
		// timestamp of another view waits on nothing, as the flush that closed
		// it delivered everywhere what any member had. A site that is not the
		// holder (any more) drops it, and its submitter sends it to the holder
		// the commit named; a minority copy writes nothing.
		if gs.phase == phaseNormal && holder(gs.view) == d.site {
			if pkt.view != gs.view.ID {
				pkt.vt = nil
			}
			d.processCbcastLocked(gs, pkt)
		}
	case pkt.view < gs.view.ID:
		// A packet of a view this copy has closed — parked by the flush, or
		// still in the transport at the commit — was settled by that flush,
		// which carried it wherever any member had delivered it. Fed to the
		// new view's clock it could read as its member's next message, and the
		// real one would then never be delivered.
	default:
		d.processCbcastLocked(gs, pkt)
	}
}

// processCbcastLocked feeds a CBCAST, a stamped ABCAST or a submission into
// the copy's causal queue and delivers whatever becomes deliverable. One whose
// timestamp is not the size of the view it names is malformed, and dropped.
// A submission released is stamped after everything released with it, which
// its stamp covers, has been delivered; while the copy flushes it is not, and
// its submitter sends it again after the commit. Caller holds d.mu.
func (d *Daemon) processCbcastLocked(gs *groupState, pkt *dataPacket) {
	if pkt.view == gs.view.ID && len(pkt.vt) != gs.view.Size() {
		return
	}
	out := gs.causal.Receive(core.CausalIncoming{ID: pkt.id, SenderRank: int(pkt.rank), VT: pkt.vt, Payload: pkt})
	for _, o := range out {
		// A CBCAST relayed for a process since observed to fail is as if
		// dropped at the door, but for the clock Receive has advanced; an
		// ABCAST the holder stamped is delivered all the same.
		if opkt := o.Payload.(*dataPacket); opkt.rank >= 0 && (opkt.proto == ABCAST || !d.failedProcs[opkt.id.Sender.Base()]) {
			d.releaseLocked(gs, opkt)
		}
	}
	for _, o := range out {
		if opkt := o.Payload.(*dataPacket); opkt.rank < 0 && gs.phase == phaseNormal {
			_ = d.stampAbcastLocked(gs, opkt)
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

// releaseLocked is the one way a group data packet the copy's order has
// released goes to delivery: it is remembered, as its bytes, so a GBCAST flush
// can re-disseminate it to members that missed it, no longer counts as this
// site's submission, and is delivered to each local member that was in the
// group when it was sent; one that joined later is skipped
// (memberState.joinedView). Caller holds d.mu.
func (d *Daemon) releaseLocked(gs *groupState, pkt *dataPacket) {
	if _, ok := gs.recent.Get(pkt.id); !ok {
		gs.recent.Put(pkt.id, pkt.raw)
	}
	delete(gs.submitted, pkt.id)
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

// Flush blocks until the sender's outstanding asynchronous multicasts have
// been transmitted and ordered (Section 3.2, footnote 3: flush is invoked
// before interacting with the external world or writing stable storage), or
// for CallTimeout (ErrTimeout). Its ABCASTs are outstanding while any copy at
// this site holds one as a submission the holder has not sent back stamped, a
// relay through a copy here included: a CBCAST cast after Flush returns
// follows them. Transmitted is site-wide: it polls until all this site sent,
// whoever cast it, is acknowledged, so beside a steady sender it may time out.
func (d *Daemon) Flush(sender addr.Address) error {
	deadline := time.Now().Add(d.cfg.CallTimeout)
	for {
		d.mu.Lock()
		_, ok := d.procs[sender.Base()]
		outstanding, closed := 0, d.closed
		for _, gs := range d.groups {
			for id := range gs.submitted {
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
