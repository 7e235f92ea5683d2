package protos

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/msg"
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
// learned from lookups otherwise.
func (d *Daemon) CurrentView(gid addr.Address) (core.View, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if gs, ok := d.groups[gid.Base()]; ok {
		return gs.view.Clone(), true
	}
	if v, ok := d.remoteViews[gid.Base()]; ok {
		return v.Clone(), true
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

// refreshView fetches a fresh copy of a group's view from the sites that
// host it. Used when a cached view appears stale (e.g. its coordinator has
// stopped responding).
func (d *Daemon) refreshView(gid addr.Address) (core.View, error) {
	return d.lookupRemote("", gid)
}

// RefreshGroupView returns the group's current view, bypassing any cached
// copy when the group is not hosted locally. Reply collection uses it to
// notice that destinations have failed while the caller was waiting.
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
	_, err := d.lookupAll(name, gid, func(resp *msg.Message) bool {
		if resp.GetInt(fFound, 0) != 1 {
			return false
		}
		view, found = decodeView(resp.GetMessage(fView)), true
		return true
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
// is enough). It also returns how many sites it could ask.
func (d *Daemon) lookupAll(name string, gid addr.Address, each func(resp *msg.Message) (done bool)) (asked int, err error) {
	callID, ch := d.newCall(0)
	defer d.dropCall(callID)

	// One request message serves every queried site: it is marshalled once
	// and the same bytes are broadcast.
	req := msg.New()
	req.PutInt(fCall, callID)
	if name != "" {
		req.PutString(fName, name)
	}
	if !gid.IsNil() {
		req.PutAddress(fGroup, gid)
	}
	raw, err := encodePacket(ptLookup, req)
	if err != nil {
		return 0, err
	}
	for _, s := range d.net.Sites() {
		if s == d.site {
			continue
		}
		if err := d.sendRaw(s, raw); err == nil {
			asked++
		}
	}
	deadline := time.After(d.cfg.CallTimeout)
	for answers := 0; answers < asked; answers++ {
		select {
		case resp := <-ch:
			if each(resp) {
				return asked, nil
			}
		case <-deadline:
			return asked, ErrTimeout
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

// handleLookup answers a name/gid lookup from another site. The response
// carries whether this site's copy of the group is primary, so the merge
// protocol can tell the primary partition apart from a fellow minority.
func (d *Daemon) handleLookup(from addr.SiteID, p *msg.Message) {
	name := p.GetString(fName, "")
	gid := p.GetAddress(fGroup)
	resp := msg.New()
	resp.PutInt(fCall, p.GetInt(fCall, 0))
	d.mu.Lock()
	defer d.mu.Unlock()
	var found *core.View
	primary := false
	if !gid.IsNil() {
		if gs, ok := d.groups[gid.Base()]; ok {
			v := gs.view.Clone()
			found = &v
			primary = gs.phase.primary()
		}
	}
	if found == nil && name != "" {
		for _, gs := range d.groups {
			if gs.view.Name == name {
				v := gs.view.Clone()
				found = &v
				primary = gs.phase.primary()
				break
			}
		}
	}
	resp.PutInt(fSite, int64(d.site))
	if found != nil {
		resp.PutInt(fFound, 1)
		resp.PutMessage(fView, encodeView(*found))
		if primary {
			resp.PutInt(fPrimary, 1)
		}
	} else {
		resp.PutInt(fFound, 0)
	}
	_ = d.sendPacket(from, ptLookupResp, resp)
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

	req := msg.NewSized(7) // with the request and call ids put on the way out
	req.PutInt(fKind, gbJoin)
	req.PutAddress(fGroup, gid.Base())
	req.PutAddressList(fProcs, addr.List{joiner.Base()})
	req.PutAddress(fSender, joiner.Base())
	if opts.WantState {
		req.PutInt(fWantState, 1)
	}
	resp, err := d.coordinatorCall(gid, req)
	if err != nil {
		d.mu.Lock()
		delete(d.pendingJoin, joinKey{gid.Base(), joiner.Base()})
		d.mu.Unlock()
		return core.View{}, err
	}
	return decodeView(resp.GetMessage(fView)), nil
}

// Leave removes a local process from a group voluntarily (pg_leave).
func (d *Daemon) Leave(member addr.Address, gid addr.Address) error {
	req := msg.NewSized(6)
	req.PutInt(fKind, gbLeave)
	req.PutAddress(fGroup, gid.Base())
	req.PutAddressList(fProcs, addr.List{member.Base()})
	req.PutAddress(fSender, member.Base())
	_, err := d.coordinatorCall(gid, req)
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
// suspected and that is not known to have failed. Caller holds d.mu.
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

// coordinatorCall routes a gbRequest to the group's acting coordinator and
// waits for its gbDone response, retrying with a refreshed view if the
// coordinator cannot be reached (it may have failed). The request carries a
// stable request id minted once here: when a coordinator dies after
// committing but before answering, the re-submission reaches the successor
// with the same id and is answered from the commit record instead of being
// executed twice.
//
// Submissions are serialized per group: a daemon has at most one GBCAST
// request for a given group in flight at a time, and ids are minted under
// the same lock, so a requester's commits happen in request-id order — the
// property the per-requester high-water dedupe (requestMarks) rests on.
func (d *Daemon) coordinatorCall(gid addr.Address, req *msg.Message) (*msg.Message, error) {
	mu := d.groupReqMu(gid)
	mu.Lock()
	defer mu.Unlock()
	rid := req.GetInt(fReqID, 0)
	if rid == 0 {
		rid = d.newReqID()
		req.PutInt(fReqID, rid)
	}
	d.noteRequest(rid, gid, reqPending)
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		view, ok := d.CurrentView(gid)
		if !ok || view.Size() == 0 {
			if v, err := d.refreshView(gid); err == nil {
				view = v
			} else {
				lastErr = err
				time.Sleep(10 * time.Millisecond)
				continue
			}
		}
		d.mu.Lock()
		coord := d.actingCoordinator(view)
		d.mu.Unlock()
		if coord.IsNil() {
			lastErr = ErrGroupVanished
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if coord.Site == d.site {
			// Execute locally: enqueue the work and wait for completion.
			resp, err := d.localGbRequest(gid, req)
			if err == nil {
				d.noteRequest(rid, gid, reqCommitted)
				return resp, nil
			}
			lastErr = err
		} else {
			resp, err := d.call(coord.Site, ptGbRequest, req)
			if err == nil {
				d.noteRequest(rid, gid, reqCommitted)
				return resp, nil
			}
			lastErr = err
			// The coordinator may have failed: force a view refresh next
			// time round.
			d.mu.Lock()
			delete(d.remoteViews, gid.Base())
			d.mu.Unlock()
		}
		if errors.Is(lastErr, ErrNonPrimary) {
			// The coordinator is wedged in a minority partition; retrying
			// the same partition cannot succeed until the merge runs.
			d.noteRequest(rid, gid, reqGaveUp)
			return nil, lastErr
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lastErr == nil {
		lastErr = ErrTimeout
	}
	d.noteRequest(rid, gid, reqGaveUp)
	return nil, lastErr
}

// requestRemoval initiates removal of members (voluntarily or by failure)
// from a group. It is asynchronous; the resulting view change propagates
// through the normal GBCAST path. A forced removal runs the full
// wedge/flush even when the members are already gone from the view — the
// takeover path uses it to finish a dead coordinator's partially completed
// protocol.
func (d *Daemon) requestRemoval(gid addr.Address, procs []addr.Address, kind int64, force bool) {
	req := msg.New()
	req.PutInt(fKind, kind)
	req.PutAddress(fGroup, gid.Base())
	req.PutAddressList(fProcs, procs)
	if force {
		req.PutInt(fForce, 1)
	}
	go func() {
		_, _ = d.coordinatorCall(gid, req)
	}()
}

// dropGroupLocked forgets a group this site no longer hosts. An ABCAST round
// this site still has open for it is over too: there is no local copy left to
// commit into, and the flush or merge that emptied the site has settled the
// message's fate at the sites that remain. The copy's lifecycle ends last, a
// flush still open on it by the input given — inCommit when the commit that
// removed the site's last member ends it, as it ends every other copy's — so
// what the flush parked finds no group and no round. Caller holds d.mu.
func (d *Daemon) dropGroupLocked(gid addr.Address, flushEnd input) {
	gs, ok := d.groups[gid]
	delete(d.groups, gid)
	for _, st := range d.pendingAb {
		if st.group == gid {
			d.retireAbcastLocked(st)
			d.releaseAbSenderLocked(st)
		}
	}
	if ok {
		d.step(gs, flushEnd)
		d.step(gs, inDrop)
	}
}
