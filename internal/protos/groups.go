package protos

import (
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/events"
)

// joinKey identifies a pending join (group, joiner).
type joinKey struct {
	gid    addr.Address
	joiner addr.Address
}

// CreateGroup creates a new process group with the given symbolic name and
// the creator as its only (and therefore oldest) member. The creator's view
// callback is invoked with the initial view.
func (d *Daemon) CreateGroup(creator addr.Address, name string) (core.View, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	lp, err := d.liveProcLocked(creator)
	if err != nil {
		return core.View{}, err
	}
	gid := d.gen.NextGroup()
	view := core.View{
		Group:   gid,
		Name:    name,
		ID:      1,
		Members: []addr.Address{creator.Base()},
	}
	gs := newGroupState(view)
	gs.members[creator.Base()] = &memberState{
		proc:       lp,
		joinedView: view.ID,
	}
	d.groups[gid] = gs
	if name != "" {
		d.nameCache[name] = gid
	}
	d.counters.ViewChanges++
	d.bus.Publish(events.Event{Kind: events.ViewInstalled, Group: gid, View: view.ID, Detail: "created"})
	v := view.Clone()
	if lp.deliverView != nil {
		cb := lp.deliverView
		d.enqueue(lp, queued{fn: func() { cb(v) }})
	}
	return view.Clone(), nil
}

// CurrentView returns the daemon's notion of the group's current view: the
// authoritative local view when the site hosts members, or the cached view
// learned from lookups otherwise. It is the view itself, which nothing writes
// once installed: the caller must not modify its members.
func (d *Daemon) CurrentView(gid addr.Address) (core.View, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if gs, ok := d.groups[gid.Base()]; ok {
		return gs.view, true
	}
	if v, ok := d.remoteViews[gid.Base()]; ok {
		return v, true
	}
	return core.View{}, false
}

// Lookup resolves a symbolic group name to its group address, querying other
// sites when the group is not hosted locally (the paper's pg_lookup). The
// current view of the group is cached as a side effect.
func (d *Daemon) Lookup(name string) (addr.Address, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return addr.Nil, ErrClosed
	}
	// A locally hosted group, or a previously resolved name.
	if gid, ok := d.nameCache[name]; ok {
		if _, hosted := d.groups[gid]; hosted {
			d.mu.Unlock()
			return gid, nil
		}
		if _, cached := d.remoteViews[gid]; cached {
			d.mu.Unlock()
			return gid, nil
		}
	}
	for gid, gs := range d.groups {
		if gs.view.Name == name {
			d.nameCache[name] = gid
			d.mu.Unlock()
			return gid, nil
		}
	}
	d.mu.Unlock()
	view, err := d.lookupRemote(name, addr.Nil)
	if err != nil {
		return addr.Nil, err
	}
	return view.Group, nil
}

// RefreshGroupView returns the group's current view, bypassing any cached
// copy when the group is not hosted locally: it asks the sites that host it.
// Reply collection uses it to notice that destinations have failed while the
// caller was waiting, and the daemon when a cached view appears stale (e.g.
// its coordinator has stopped responding).
func (d *Daemon) RefreshGroupView(gid addr.Address) (core.View, error) {
	d.mu.Lock()
	if gs, ok := d.groups[gid.Base()]; ok {
		v := gs.view.Clone()
		d.mu.Unlock()
		return v, nil
	}
	d.mu.Unlock()
	return d.lookupRemote("", gid)
}

// lookupRemote queries every other attached site for a group, by name or by
// group id, and caches the first positive answer.
func (d *Daemon) lookupRemote(name string, gid addr.Address) (view core.View, err error) {
	err = d.lookupAll(name, gid, func(resp *lookupPacket) bool {
		view = resp.view
		return !view.Group.IsNil()
	})
	switch {
	case !view.Group.IsNil():
		d.mu.Lock()
		d.cacheRemoteViewLocked(view)
		d.mu.Unlock()
		return view, nil
	case err != nil:
		return view, fmt.Errorf("%w: lookup %q", err, name)
	}
	return view, fmt.Errorf("%w: %q", ErrUnknownGroup, name) // nobody to ask, or nobody knows it
}

// lookupAll broadcasts one ptLookup — by name, by group id, or both — to
// every other attached site and feeds the answers to each, as they arrive,
// until each reports it has seen enough, every site asked has answered, or
// CallTimeout passes (ErrTimeout) or the daemon closes.
func (d *Daemon) lookupAll(name string, gid addr.Address, each func(resp *lookupPacket) (done bool)) error {
	callID, c := d.newCall(0, ptLookupResp)
	defer d.dropCall(callID)
	for asked := d.broadcastLookup(callID, gid, name); asked > 0; asked-- {
		a, err := c.await()
		if err != nil || each(a.look) {
			return err
		}
	}
	return nil
}

// broadcastLookup sends one ptLookup under a call id — by group id, name or
// both, encoded once — to every other attached site, and returns how many it
// could ask.
func (d *Daemon) broadcastLookup(call int64, gid addr.Address, name string) (asked int) {
	raw := lookupPacket{call: call, view: core.View{Group: gid, Name: name}}.encode(ptLookup)
	for _, s := range d.net.Sites() {
		if s != d.site && d.sendRaw(s, raw) == nil {
			asked++
		}
	}
	return asked
}

// cacheRemoteViewLocked stores a view learned from another site. Caller holds d.mu.
func (d *Daemon) cacheRemoteViewLocked(v core.View) {
	if v.Group.IsNil() {
		return
	}
	if _, hosted := d.groups[v.Group]; hosted {
		return
	}
	if old, ok := d.remoteViews[v.Group]; !ok || v.ID >= old.ID {
		d.remoteViews[v.Group] = v.Clone()
		if v.Name != "" {
			d.nameCache[v.Name] = v.Group
		}
	}
}

// handleLookupLocked answers a name/gid lookup from another site. The response
// carries whether this site's copy of the group is primary, so the merge
// protocol can tell the primary partition apart from a fellow minority. Caller
// holds d.mu.
func (d *Daemon) handleLookupLocked(from addr.SiteID, q lookupPacket) {
	gs := d.groups[q.view.Group.Base()]
	if gs == nil && q.view.Name != "" {
		for _, g := range d.groups {
			if g.view.Name == q.view.Name {
				gs = g
				break
			}
		}
	}
	resp := &lookupPacket{site: d.site}
	if gs != nil {
		resp.view, resp.primary = gs.view.Clone(), gs.phase.primary()
	}
	d.answerLocked(from, q.call, ptLookupResp, answer{look: resp})
}

// JoinOptions configures a Join call.
type JoinOptions struct {
	// WantState requests a state transfer from the group's oldest member;
	// deliveries to the joiner are held until the transfer completes
	// (Section 3.8 "State transfer").
	WantState bool
	// StateReceiver receives the transferred state blocks. Required when
	// WantState is set if the application wants the data; if nil the
	// blocks are discarded (but delivery is still held until the transfer
	// finishes, preserving the virtual-synchrony cut).
	StateReceiver func(block []byte, last bool)
}

// Join adds a local process to an existing group (the paper's pg_join /
// join_and_xfer). It returns the first view that includes the new member.
func (d *Daemon) Join(joiner addr.Address, gid addr.Address, opts JoinOptions) (core.View, error) {
	d.mu.Lock()
	if _, err := d.liveProcLocked(joiner); err != nil {
		d.mu.Unlock()
		return core.View{}, err
	}
	if opts.WantState || opts.StateReceiver != nil {
		d.pendingJoin[joinKey{gid.Base(), joiner.Base()}] = opts.StateReceiver
	}
	d.mu.Unlock()
	e := d.ask(gbPacket{kind: gbJoin, group: gid, procs: addr.List{joiner.Base()}, wantState: opts.WantState})
	if e.err != nil {
		return core.View{}, e.err
	}
	return e.resp.view, nil
}

// Leave removes a local process from a group voluntarily (pg_leave).
func (d *Daemon) Leave(member addr.Address, gid addr.Address) error {
	return d.ask(gbPacket{kind: gbLeave, group: gid, procs: addr.List{member.Base()}}).err
}

// SetStateProvider registers the routine the oldest member uses to encode
// the group state for a joining member. Providers return the state as a
// series of blocks.
func (d *Daemon) SetStateProvider(member, gid addr.Address, provider func() [][]byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	ms, err := d.memberLocked(member, gid)
	if err == nil {
		ms.stateProv = provider
	}
	return err
}

// SetStateReceiver registers (or replaces) the routine that receives the
// group state on the member's behalf. Join with a StateReceiver registers
// one implicitly; group creators — which never joined — use this call so
// that a later partition-merge rejoin can restore their state from the
// primary.
func (d *Daemon) SetStateReceiver(member, gid addr.Address, recv func(block []byte, last bool)) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	ms, err := d.memberLocked(member, gid)
	if err == nil {
		ms.stateRecv = recv
	}
	return err
}

// memberLocked returns the state of a local member of a hosted group.
// Caller holds d.mu.
func (d *Daemon) memberLocked(member, gid addr.Address) (*memberState, error) {
	gs, ok := d.groups[gid.Base()]
	if !ok {
		return nil, ErrUnknownGroup
	}
	ms, ok := gs.members[member.Base()]
	if !ok {
		return nil, ErrNotMember
	}
	return ms, nil
}

// liveProcLocked returns a local process that may act, or why it may not:
// the daemon is closed, the address names no process registered here, or
// the process has failed. Caller holds d.mu.
func (d *Daemon) liveProcLocked(a addr.Address) (*localProc, error) {
	if d.closed {
		return nil, ErrClosed
	}
	lp, ok := d.procs[a.Base()]
	if !ok {
		return nil, ErrUnknownProc
	}
	if !lp.alive {
		return nil, ErrDeadProcess
	}
	return lp, nil
}

// actingCoordinator returns the oldest member of the view whose site is not
// suspected and that is not known to have failed, the one that runs GBCAST
// requests (openRoundLocked). Caller holds d.mu.
func (d *Daemon) actingCoordinator(v core.View) addr.Address {
	for _, m := range v.Members {
		if d.suspected[m.Site] {
			continue
		}
		if d.failedProcs[m.Base()] {
			continue
		}
		return m
	}
	return addr.Nil
}

// request is a GBCAST this daemon asks of a group's acting coordinator: an
// entry of the group's queue, d.requests[gid], which runs one entry at a time
// in the order they were filed and their ids minted, so a requester's commits
// happen in id order (requestMarks rests on that). A try asks by the view the
// daemon has, or looks it up. A failed try drops the cached view and goes
// again at the next scan tick, four tries in all; a refusal (errNotCoordinator)
// is not counted for one CallTimeout; ErrNonPrimary is final. The next try of
// one a dead coordinator committed is answered from the commit record.
type request struct {
	gbPacket             // the request; its call is the try's in flight, 0 between tries
	site     addr.SiteID // the site the try asks; 0 while it looks the view up
	answered bool        // the try has its answer, or its end, in resp and err
	done     bool        // the request has ended, with resp or err
	asked    int         // the sites the try's lookup asked that have not answered
	tries    int         // the tries made, a refusal before refusals not counted
	refusals uint64      // the scan tick from which a refusal counts as a try
	deadline uint64      // the scan tick the next try waits for, after a failed one
	resp     *gbPacket   // the try's answer; at the end, the request's
	err      error       // why the try failed; at the end, why the request did
	rejoin   *rejoin     // a rejoin's (merge.go), or nil
}

// ask files a caller's request, its id minted unless it has one, and waits
// for its end on d.wake, which endLocked broadcasts.
func (d *Daemon) ask(req gbPacket) *request {
	e := &request{gbPacket: req}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.queueLocked(e)
	d.driveLocked()
	for !e.done {
		d.wake.Wait()
	}
	return e
}

// requestRemovalLocked files a failure removal; a forced one runs the full
// flush even if the members are gone, finishing a dead coordinator's protocol.
func (d *Daemon) requestRemovalLocked(gid addr.Address, procs []addr.Address, force bool) {
	d.queueLocked(&request{gbPacket: gbPacket{kind: gbFail, group: gid, procs: procs, force: force}})
}

// queueLocked queues a request, minting its id (not a rejoin's purge's, an
// idempotent leave that may not run), or ends it on a closed daemon.
func (d *Daemon) queueLocked(e *request) {
	e.group = e.group.Base()
	if e.reqID == 0 && (e.rejoin == nil || e.kind == gbJoin) {
		e.reqID = d.newReqIDLocked()
	}
	if d.closed {
		d.endLocked(e.group, e, nil, ErrClosed)
		return
	}
	d.noteRequestLocked(e.reqID, e.group, reqPending)
	d.requests[e.group] = append(d.requests[e.group], e)
}

// driveLocked moves every queue's head as far as it goes: a try answered or
// ended is taken up, and the next starts once due. It runs at the tail of each
// hold that may answer, end or file a request (handleTransport's, the scan
// tick's, the failure handler's, the filing one's), so what the hold decided
// is final: a site it suspects is not asked, and no try runs inside a round or
// a commit.
func (d *Daemon) driveLocked() {
	for moved := true; moved && !d.closed; {
		moved = false
		for gid, q := range d.requests {
			if len(q) == 0 {
				continue
			}
			switch e := q[0]; {
			case e.answered:
				e.answered = false
				d.tookLocked(gid, e)
			case e.call != 0 || d.tick < e.deadline:
				continue
			default:
				d.tryLocked(gid, e)
			}
			moved = true
		}
	}
}

// tryLocked starts a head's try. A request this site makes of itself goes to
// the handler a peer's goes to, and is answered as a peer's is (answerLocked).
func (d *Daemon) tryLocked(gid addr.Address, e *request) {
	if e.tries == 0 {
		e.tries, e.refusals = 1, d.deadlineLocked(d.cfg.CallTimeout)
	}
	view := d.remoteViews[gid]
	if gs := d.groups[gid]; gs != nil {
		view = gs.view
	}
	if r := e.rejoin; r != nil {
		if lp := d.procs[e.procs[0]]; r.err == nil && (lp == nil || !lp.alive) {
			r.err = ErrDeadProcess
		}
		if r.err != nil || e.kind == gbLeave && view.Size() > 0 && !view.Contains(e.procs[0]) {
			d.endLocked(gid, e, nil, r.err) // a purge not needed, or a rejoin failed
			return
		}
	}
	if view.Size() == 0 {
		e.call = d.newCallLocked(0, ptLookupResp, e)
		if e.asked = d.broadcastLookup(e.call, gid, ""); e.asked == 0 {
			d.endCallsLocked(ErrUnknownGroup, func(c *pendingCall) bool { return c.val == e })
		}
		return
	}
	coord := d.actingCoordinator(view)
	e.call, e.site = d.newCallLocked(coord.Site, ptGbDone, e), coord.Site
	var raw []byte
	err := ErrGroupVanished
	switch {
	case coord.IsNil():
	case coord.Site == d.site:
		err = nil
		d.handleGbRequestLocked(d.site, &e.gbPacket)
	default:
		req := d.carryAckLocked(gid, e.gbPacket)
		if raw, err = req.encode(ptGbRequest); err == nil {
			err = d.sendRaw(coord.Site, raw)
		}
	}
	if err != nil {
		d.endCallsLocked(err, func(c *pendingCall) bool { return c.val == e })
	}
}

// carryAckLocked returns the request a try sends a remote coordinator: when
// this site's copy is primary and open, with the copy's answer to the round's
// prepare in the sections a request leaves empty, built as a prepare's is, so
// the copy wedges and records the try (the coordinator prepares only the other
// sites, openRoundLocked). A copy already flushing carries nothing.
func (d *Daemon) carryAckLocked(gid addr.Address, req gbPacket) gbPacket {
	gs := d.groups[gid]
	if gs == nil || gs.phase != phaseNormal {
		return req
	}
	var targets addr.List
	if req.kind == gbFail {
		targets = req.procs
	}
	ack := d.prepareLocalLocked(gid, targets, req.sealTarget, false)
	req.view, req.report, req.dead, req.xfers, req.outcome = ack.view, ack.report, ack.dead, ack.xfers, ack.outcome
	gs.carried = req.call
	return req
}

// fileLocked files a try's answer or end. A lookup's answer that knows the
// group is cached, for the try to go on by; the last that does not fails it.
// The coordinator's answer to a try that carried the copy's ack (a call still
// in the table: an end has left it) ends the flush the try opened, if still
// open: a commit that used the ack came ahead of the answer.
func (e *request) fileLocked(d *Daemon, call int64, a answer) {
	if gs := d.groups[e.group]; gs != nil && gs.carried == call && d.calls[call] != nil {
		d.step(gs, inAnswer)
	}
	if l := a.look; l != nil && l.view.Group.IsNil() {
		if e.asked--; e.asked > 0 {
			return
		}
		a.err = ErrUnknownGroup
	} else if l != nil {
		d.cacheRemoteViewLocked(l.view)
	}
	delete(d.calls, call)
	e.resp, e.err, e.answered = a.gb, a.err, true
}

// tookLocked takes up the end of a head's try.
func (d *Daemon) tookLocked(gid addr.Address, e *request) {
	e.call, e.site = 0, 0
	switch {
	case e.err == nil && e.resp == nil: // the lookup found the view to ask by
	case e.err == nil:
		d.endLocked(gid, e, e.resp, nil)
	case e.tries >= 4 || errors.Is(e.err, ErrNonPrimary):
		delete(d.remoteViews, gid)
		d.endLocked(gid, e, nil, e.err)
	default:
		delete(d.remoteViews, gid)
		e.tries += int(bit(!errors.Is(e.err, errNotCoordinator) || d.tick+1 >= e.refusals))
		e.deadline = d.tick + 1
	}
}

// endLocked ends a request, the head taken off its queue: its outcome noted,
// a failed join's receiver forgotten, a rejoin's end taken up, its caller woken.
func (d *Daemon) endLocked(gid addr.Address, e *request, resp *gbPacket, err error) {
	if q := d.requests[gid]; len(q) > 0 && q[0] == e {
		d.requests[gid] = q[:copy(q, q[1:])] // an empty queue keeps its array
	}
	d.noteRequestLocked(e.reqID, gid, reqCommitted+reqState(bit(err != nil))) // or reqGaveUp
	if err != nil && e.kind == gbJoin {
		delete(d.pendingJoin, joinKey{gid, e.procs[0]})
	}
	if e.rejoin != nil {
		d.rejoinedLocked(gid, e, err)
	}
	e.resp, e.err, e.done = resp, err, true
	d.wake.Broadcast()
}

// dropGroupLocked forgets a group this site no longer hosts, and with the copy
// its submissions, which no member here waits for any more. The copy's
// lifecycle ends last, a flush still open on it by the input given — inCommit
// when the commit that removed the site's last member ends it, as it ends
// every other copy's — so what the flush parked finds no group. Caller holds
// d.mu.
func (d *Daemon) dropGroupLocked(gid addr.Address, flushEnd input) {
	gs, ok := d.groups[gid]
	delete(d.groups, gid)
	if ok {
		d.step(gs, flushEnd)
		d.step(gs, inDrop)
	}
}
