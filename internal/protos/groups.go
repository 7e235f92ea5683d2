package protos

import (
	"errors"
	"fmt"
	"sync"

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
func (d *Daemon) lookupRemote(name string, gid addr.Address) (core.View, error) {
	var view core.View
	found := false
	_, err := d.lookupAll(name, gid, func(resp *lookupPacket) bool {
		view, found = resp.view, !resp.view.Group.IsNil()
		return found
	})
	switch {
	case found:
		d.mu.Lock()
		d.cacheRemoteViewLocked(view)
		d.mu.Unlock()
		return view, nil
	case err != nil:
		return core.View{}, fmt.Errorf("%w: lookup %q", err, name)
	default: // nobody to ask, or nobody knows it
		return core.View{}, fmt.Errorf("%w: %q", ErrUnknownGroup, name)
	}
}

// lookupAll broadcasts one ptLookup — by name, by group id, or both — to
// every other attached site and feeds the answers to each, as they arrive,
// until each reports it has seen enough, every site asked has answered, or
// CallTimeout passes (ErrTimeout: the caller decides whether what arrived
// is enough) or the daemon closes. It also returns how many sites it could
// ask.
func (d *Daemon) lookupAll(name string, gid addr.Address, each func(resp *lookupPacket) (done bool)) (asked int, err error) {
	callID, c := d.newCall(0, ptLookupResp)
	defer d.dropCall(callID)

	// One request serves every queried site: it is encoded once and the same
	// bytes are broadcast.
	req := lookupPacket{call: callID, view: core.View{Group: gid, Name: name}}
	raw := req.encode(ptLookup)
	for _, s := range d.net.Sites() {
		if s == d.site {
			continue
		}
		if err := d.sendRaw(s, raw); err == nil {
			asked++
		}
	}
	for answers := 0; answers < asked; answers++ {
		a, err := c.await()
		if err != nil {
			return asked, err
		}
		if each(a.look) {
			return asked, nil
		}
	}
	return asked, nil
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
		d.pendingJoin[joinKey{gid.Base(), joiner.Base()}] = pendingJoin{stateRecv: opts.StateReceiver}
	}
	d.mu.Unlock()

	resp, err := d.coordinatorCall(gid, &gbPacket{kind: gbJoin, group: gid.Base(), procs: addr.List{joiner.Base()}, wantState: opts.WantState})
	if err != nil {
		d.mu.Lock()
		delete(d.pendingJoin, joinKey{gid.Base(), joiner.Base()})
		d.mu.Unlock()
		return core.View{}, err
	}
	return resp.view, nil
}

// Leave removes a local process from a group voluntarily (pg_leave).
func (d *Daemon) Leave(member addr.Address, gid addr.Address) error {
	_, err := d.coordinatorCall(gid, &gbPacket{kind: gbLeave, group: gid.Base(), procs: addr.List{member.Base()}})
	return err
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

// groupReqMu returns the mutex serializing this daemon's GBCAST request
// submissions for one group.
func (d *Daemon) groupReqMu(gid addr.Address) *sync.Mutex {
	d.mu.Lock()
	defer d.mu.Unlock()
	mu, ok := d.reqSerial[gid.Base()]
	if !ok {
		mu = &sync.Mutex{}
		d.reqSerial[gid.Base()] = mu
	}
	return mu
}

// coordinatorCall routes a GBCAST request to the group's acting coordinator and
// waits for its ptGbDone answer. A failed try (the coordinator may have failed)
// is tried again at the next scan tick, four tries in all; a refusal
// (errNotCoordinator) is re-resolved at every tick for one CallTimeout, not
// counted; ErrNonPrimary is final, as a wedged partition stays so until the
// merge. The request carries a stable id minted once here: when a coordinator
// dies after committing but before answering, the re-submission reaches the
// successor with the same id and is answered from the commit record instead of
// being executed twice.
//
// Submissions are serialized per group: a daemon has at most one GBCAST
// request for a given group in flight at a time, and ids are minted under
// the same lock, so a requester's commits happen in request-id order — the
// property the per-requester high-water dedupe (requestMarks) rests on.
func (d *Daemon) coordinatorCall(gid addr.Address, req *gbPacket) (*gbPacket, error) {
	mu := d.groupReqMu(gid)
	mu.Lock()
	defer mu.Unlock()
	if req.reqID == 0 {
		req.reqID = d.newReqID()
	}
	d.noteRequest(req.reqID, gid, reqPending)
	d.mu.Lock()
	refusals := d.deadlineLocked(d.cfg.CallTimeout) // the tick that starts counting refusals as tries
	d.mu.Unlock()
	resp, err := d.askCoordinator(gid, req)
	for tries := 1; err != nil && tries < 4 && !errors.Is(err, ErrNonPrimary); {
		refused := errors.Is(err, errNotCoordinator)
		tick, werr := d.nextTick()
		if werr != nil {
			err = werr
			break
		}
		tries += int(bit(!refused || tick >= refusals))
		resp, err = d.askCoordinator(gid, req)
	}
	if err != nil {
		d.noteRequest(req.reqID, gid, reqGaveUp)
		return nil, err
	}
	d.noteRequest(req.reqID, gid, reqCommitted)
	return resp, nil
}

// askCoordinator is one try of coordinatorCall; a failed call drops the cached
// view, so the next try looks the group up again.
func (d *Daemon) askCoordinator(gid addr.Address, req *gbPacket) (*gbPacket, error) {
	view, ok := d.CurrentView(gid)
	if !ok || view.Size() == 0 {
		v, err := d.RefreshGroupView(gid)
		if err != nil {
			return nil, err
		}
		view = v
	}
	d.mu.Lock()
	coord := d.actingCoordinator(view)
	d.mu.Unlock()
	if coord.IsNil() {
		return nil, ErrGroupVanished
	}
	resp, err := d.call(coord.Site, *req)
	if err != nil {
		d.mu.Lock()
		delete(d.remoteViews, gid.Base())
		d.mu.Unlock()
	}
	return resp, err
}

// requestRemoval initiates removal of members (voluntarily or by failure)
// from a group. It is asynchronous; the resulting view change propagates
// through the normal GBCAST path. A forced removal runs the full
// wedge/flush even when the members are already gone from the view — the
// takeover path uses it to finish a dead coordinator's partially completed
// protocol.
func (d *Daemon) requestRemoval(gid addr.Address, procs []addr.Address, kind int64, force bool) {
	go d.coordinatorCall(gid, &gbPacket{kind: kind, group: gid.Base(), procs: procs, force: force})
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
