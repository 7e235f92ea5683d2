package protos

// Partition merge. The paper's fault model is crash-only: a network
// partition is outside it, and the original recovery is to restart the
// minority sites. The primary-partition extension implemented here keeps the
// minority alive instead: decideFlush's majority rule stops it from installing
// split-brain views (the group copy wedges into read-only "non-primary"
// mode), and once the partition heals this file's merge protocol discovers
// the primary partition's copy of the group, discards the minority's stale
// speculative state, and rejoins each local member through the ordinary
// join + state-transfer machinery — no process restart, no lost addresses.

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/events"
)

// GroupPrimary reports whether this site's copy of the group is in the
// primary partition. Sites that host no members of the group — and therefore
// hold no copy that could be stale — report true.
func (d *Daemon) GroupPrimary(gid addr.Address) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if gs, ok := d.groups[gid.Base()]; ok {
		return gs.phase.primary()
	}
	return true
}

// notifyPrimary publishes a primary-status transition on the event stream.
func (d *Daemon) notifyPrimary(gid addr.Address, primary bool) {
	kind := events.PrimaryLost
	if primary {
		kind = events.PrimaryResumed
	}
	d.bus.Publish(events.Event{Kind: kind, Group: gid.Base()})
}

// MergeGroup merges this site's non-primary copy of a group back into the
// primary partition and waits for the attempt's end; the daemon starts one by
// itself on a healing partition. At a copy not non-primary it is a no-op.
func (d *Daemon) MergeGroup(gid addr.Address) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	sv := d.mergeLocked(d.groups[gid.Base()])
	d.driveLocked()
	for sv != nil && !sv.done {
		d.wake.Wait()
	}
	if sv == nil {
		return nil
	}
	return sv.err
}

// survey is a merge attempt: its poll of the sites for the group, on the copy
// while it is merging, then the rejoins it files. A wedged copy answers
// primary=0, so a minority cannot masquerade as the primary.
type survey struct {
	gs      *groupState
	call    int64                     // the lookup's, which ends at its tick deadline
	asked   int                       // the sites asked that have not answered
	primary *core.View                // a primary copy's view, once one answered
	wedged  map[addr.SiteID]core.View // the wedged copies' views, by site
	rejoins int                       // the rejoins filed that have not ended
	err     error                     // why the attempt failed
	done    bool                      // the attempt has ended (d.wake is broadcast)
}

// mergeLocked starts a merge attempt at a non-primary copy, and returns it (nil
// at any other). Caller holds d.mu.
func (d *Daemon) mergeLocked(gs *groupState) *survey {
	if gs == nil || gs.phase != phaseNonPrimary || d.closed {
		return nil
	}
	d.step(gs, inMergeStart)
	sv := &survey{gs: gs, wedged: make(map[addr.SiteID]core.View)}
	gs.survey, sv.call = sv, d.newCallLocked(0, ptLookupResp, sv)
	if sv.asked = d.broadcastLookup(sv.call, gs.view.Group, gs.view.Name); sv.asked == 0 {
		sv.err = fmt.Errorf("%w: no reachable sites", ErrNonPrimary)
		d.decideLocked(sv)
	}
	return sv
}

// fileLocked files a site's answer to the survey, or its end: a primary's
// answer, the last and the deadline decide it. Caller holds d.mu.
func (sv *survey) fileLocked(d *Daemon, _ int64, a answer) {
	switch l := a.look; {
	case errors.Is(a.err, ErrClosed):
		sv.err = a.err
	case a.err != nil:
	case l.primary:
		sv.primary = &l.view
	case l.site != 0 && !l.view.Group.IsNil():
		sv.wedged[l.site] = l.view
	}
	if sv.asked--; sv.asked <= 0 || a.err != nil || sv.primary != nil {
		d.decideLocked(sv)
	}
}

// decideLocked ends the survey and decides the attempt. With no primary copy
// anywhere the wedged copies may resume in place (resumeWedgedLocked); with the
// primary still at this copy's view, nothing diverged and the copy resumes in
// place. Otherwise the copy is discarded and each live local member rejoins,
// with a state transfer that replaces the speculative state. An attempt that
// does neither leaves the copy non-primary. Caller holds d.mu.
func (d *Daemon) decideLocked(sv *survey) {
	gs := sv.gs
	gs.survey = nil
	delete(d.calls, sv.call)
	switch p := sv.primary; {
	case sv.err != nil:
	case p == nil:
		sv.err = d.resumeWedgedLocked(gs, sv.wedged)
	case p.ID == gs.view.ID:
		d.step(gs, inMergeResume)
	default:
		gid := gs.view.Group
		d.dropGroupLocked(gid, inDrop)
		d.remoteViews[gid] = p.Clone()
		if p.Name != "" {
			d.nameCache[p.Name] = gid
		}
		for a, ms := range gs.members {
			if ms.proc.alive {
				sv.rejoins++
				d.rejoinLocked(gid, a, &rejoin{recv: ms.stateRecv, merge: sv})
			}
		}
		if sv.rejoins > 0 {
			return
		}
	}
	d.landLocked(sv)
}

// landLocked ends an attempt whose rejoins have ended. Caller holds d.mu.
func (d *Daemon) landLocked(sv *survey) {
	if gid := sv.gs.view.Group; sv.gs.phase == phaseDropped && sv.err == nil {
		d.bus.Publish(events.Event{Kind: events.MergeLand, Group: gid, View: sv.primary.ID})
		d.notifyPrimary(gid, true)
	}
	d.step(sv.gs, inMergeAbandon)
	sv.done = true
	d.wake.Broadcast()
}

// rejoin is a live member's rejoin of a group whose copy here is gone (a merge
// discarded it, or a failure view wrongly removed the member): a purge, the
// leave run if the view its try resolves still lists the member, so the join
// rebuilds its ordering state instead of no-opping; then the join, with a
// state transfer to recv. A failed rejoin parks the member (d.parked).
type rejoin struct {
	recv  func(block []byte, last bool)
	merge *survey // the merge attempt that filed it, until it ends
	busy  bool    // its entries are filed and have not ended
	err   error   // why the purge failed, which ends the join at once
}

// rejoinLocked files a member's rejoin. Caller holds d.mu.
func (d *Daemon) rejoinLocked(gid, proc addr.Address, r *rejoin) {
	r.busy, r.err = true, nil
	d.queueLocked(&request{gbPacket: gbPacket{kind: gbLeave, group: gid, procs: addr.List{proc}}, rejoin: r})
	d.queueLocked(&request{gbPacket: gbPacket{kind: gbJoin, group: gid, procs: addr.List{proc}, wantState: r.recv != nil}, rejoin: r})
}

// rejoinedLocked takes up the end of a rejoin's entry: a purge's registers the
// receiver or fails the join. A failed rejoin parks the member unless it is
// parked (single-flight); a parked member's retry that succeeds unparks it and,
// in the same hold, reports the merge whole if no other member of the group is
// parked. Caller holds d.mu.
func (d *Daemon) rejoinedLocked(gid addr.Address, e *request, err error) {
	r, k := e.rejoin, joinKey{gid, e.procs[0]}
	if e.kind == gbLeave {
		switch {
		case err != nil:
			r.err = fmt.Errorf("protos: merge purge of %v: %w", k.joiner, err)
		case r.recv != nil:
			d.pendingJoin[k] = r.recv
		}
		return
	}
	if err != nil && r.err == nil {
		err = fmt.Errorf("protos: merge rejoin of %v: %w", k.joiner, err)
	}
	m, parked := r.merge, d.parked[k] == r
	r.busy, r.merge = false, nil
	switch {
	case err == nil && parked:
		delete(d.parked, k)
		if !slices.ContainsFunc(slices.Collect(maps.Keys(d.parked)), func(o joinKey) bool { return o.gid == gid }) {
			d.notifyPrimary(gid, true) // withheld by the merge while the rejoin failed
		}
	case err != nil && !parked:
		d.bus.Publish(events.Event{Kind: events.MergePark, Group: gid, Detail: k.joiner.String()})
		if d.parked[k] == nil {
			d.parked[k] = r
		}
	}
	if m != nil {
		m.err = cmp.Or(m.err, err)
		if m.rejoins--; m.rejoins == 0 {
			d.landLocked(m)
		}
	}
}

// retryParkedLocked files a retry for each parked member with none in flight,
// which looks the view up afresh (the removal pending at park time may have
// committed), or unparks one that died or is hosted again. Caller holds d.mu.
func (d *Daemon) retryParkedLocked() {
	for k, r := range d.parked {
		if r.busy {
			continue
		}
		d.bus.Publish(events.Event{Kind: events.MergeRetry, Group: k.gid, Detail: k.joiner.String()})
		if lp, gs := d.procs[k.joiner], d.groups[k.gid]; lp == nil || !lp.alive || gs != nil && gs.members[k.joiner] != nil {
			delete(d.parked, k)
			continue
		}
		delete(d.remoteViews, k.gid)
		d.rejoinLocked(k.gid, k.joiner, r)
	}
}

// PendingMerges returns the groups with members parked after a failed merge
// rejoin, awaiting the automatic retry.
func (d *Daemon) PendingMerges() []addr.Address {
	d.mu.Lock()
	defer d.mu.Unlock()
	var gids []addr.Address
	for k := range d.parked {
		if !slices.Contains(gids, k.gid) {
			gids = append(gids, k.gid)
		}
	}
	return gids
}

// resumeWedgedLocked handles total wedge: no partition anywhere retained half
// of the last agreed view (a multi-way split), so every copy is non-primary
// and there is no primary to merge into. Nothing can have committed past that
// view then, so if the reachable wedged copies all still hold it and together
// cover at least half of its members, the group may resume in place. The site
// hosting the oldest reachable member is the one initiator: it clears the
// reachable copies with a gbResume notice, then files a corroborated removal of
// the members still unreachable (the flush's corroboration protects any that
// turn out to be alive). Caller holds d.mu.
func (d *Daemon) resumeWedgedLocked(gs *groupState, wedged map[addr.SiteID]core.View) error {
	v, reachable := gs.view, map[addr.SiteID]bool{d.site: true}
	for s, w := range wedged {
		if w.ID != v.ID {
			return fmt.Errorf("%w: wedged copies disagree (view %d vs %d); waiting for a primary", ErrNonPrimary, w.ID, v.ID)
		}
		reachable[s] = true
	}
	var unreached []addr.Address
	for _, m := range v.Members {
		if !reachable[m.Site] {
			unreached = append(unreached, m.Base())
		}
	}
	if 2*len(unreached) > v.Size() {
		return fmt.Errorf("%w: reachable wedged copies cover only %d of %d members", ErrNonPrimary, v.Size()-len(unreached), v.Size())
	}
	if i := slices.IndexFunc(v.Members, func(m addr.Address) bool { return reachable[m.Site] }); v.Members[i].Site != d.site {
		return nil // another site's attempt initiates the resume, keeping the initiator unique
	}
	d.commitGbLocked(slices.Collect(maps.Keys(wedged)), &gbPacket{group: v.Group, kind: gbResume, view: v})
	if len(unreached) > 0 {
		d.requestRemovalLocked(v.Group, unreached, false)
	}
	return nil
}
