package protos

// Partition merge. The paper's fault model is crash-only: a network
// partition is outside it, and the original recovery is to restart the
// minority sites. The primary-partition extension implemented here keeps the
// minority alive instead: executeGb's majority rule stops it from installing
// split-brain views (the group copy wedges into read-only "non-primary"
// mode), and once the partition heals this file's merge protocol discovers
// the primary partition's copy of the group, discards the minority's stale
// speculative state, and rejoins each local member through the ordinary
// join + state-transfer machinery — no process restart, no lost addresses.

import (
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
// primary partition. The daemon does so by itself when the failure detector
// observes the partition healing; an application may ask earlier. Merging a
// group that is not in non-primary mode is a no-op.
func (d *Daemon) MergeGroup(gid addr.Address) error {
	return d.mergeGroup(gid.Base())
}

// mergeNonPrimaryGroups starts a merge attempt for every group copy stranded
// in non-primary mode. Called on failure-detector recovery events.
func (d *Daemon) mergeNonPrimaryGroups() {
	d.mu.Lock()
	var gids []addr.Address
	for gid, gs := range d.groups {
		if gs.phase == phaseNonPrimary {
			gids = append(gids, gid)
		}
	}
	d.mu.Unlock()
	for _, gid := range gids {
		go func() { _ = d.mergeGroup(gid) }()
	}
}

// mergeGroup runs the merge protocol for one group: find the primary
// partition's current view, and either resume in place (the primary never
// moved past the view this copy already holds, so nothing diverged) or
// discard the local copy and rejoin every live local member with a state
// transfer.
func (d *Daemon) mergeGroup(gid addr.Address) error {
	d.mu.Lock()
	gs, ok := d.groups[gid]
	if !ok || gs.phase != phaseNonPrimary || d.closed {
		// Primary, or this copy's one merge attempt is already running.
		d.mu.Unlock()
		return nil
	}
	d.step(gs, inMergeStart)
	attempt := gs.mergeAttempt
	staleView := gs.view.Clone()
	d.mu.Unlock()
	defer func() {
		// An attempt that neither resumed the copy nor discarded it leaves it
		// non-primary for the next recovery event; after either, the input
		// changes nothing. One the copy has outlived (see below) must not
		// abandon its successor's merge.
		d.mu.Lock()
		if gs.mergeAttempt == attempt {
			d.step(gs, inMergeAbandon)
		}
		d.mu.Unlock()
	}()

	sv, err := d.surveyGroup(gid, staleView.Name)
	if err != nil {
		return err
	}
	if sv.primary == nil {
		// No partition anywhere holds a primary copy (e.g. a three-way
		// split wedged every side). If the reachable wedged copies agree,
		// resume the last agreed view in place.
		return d.resumeWedged(gid, staleView, sv.wedged)
	}
	primView := *sv.primary

	d.mu.Lock()
	if gs.phase != phaseMerging || gs.mergeAttempt != attempt {
		// A gbResume notice resumed the copy while the survey ran. If it has
		// gone non-primary again since, a later attempt owns it now; this
		// one's view of it is stale either way.
		d.mu.Unlock()
		return nil
	}
	if primView.ID == staleView.ID {
		// The partition healed before the primary handled any failure: both
		// sides still hold the same agreed view, nothing was committed past
		// it here (writes were refused), and anything committed there is
		// retransmitted by the reliable transport. Resume in place.
		d.step(gs, inMergeResume)
		d.mu.Unlock()
		return nil
	}

	// Full merge: snapshot the live local members and their state
	// receivers, discard the stale group copy wholesale, and rejoin each
	// member from scratch. The join commit rebuilds the member state with
	// fresh ordering queues, and the state transfer replaces the
	// application's speculative state with the primary's.
	type rejoin struct {
		proc      addr.Address
		recv      func(block []byte, last bool)
		inPrimary bool
	}
	var rejoins []rejoin
	for a, ms := range gs.members {
		if !ms.proc.alive {
			continue
		}
		rejoins = append(rejoins, rejoin{a, ms.stateRecv, primView.Contains(a)})
	}
	d.dropGroupLocked(gid, inDrop)
	d.remoteViews[gid] = primView.Clone()
	if primView.Name != "" {
		d.nameCache[primView.Name] = gid
	}
	d.mu.Unlock()

	var firstErr error
	for _, r := range rejoins {
		if err := d.rejoinOrPark(gid, r.proc, r.recv, r.inPrimary); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		d.bus.Publish(events.Event{Kind: events.MergeLand, Group: gid, View: primView.ID})
		d.notifyPrimary(gid, true)
	}
	return firstErr
}

// rejoinMember runs the rejoin protocol for one member of a discarded group
// copy: when the primary still lists the member (the partition healed before
// the removal committed) the stale entry is purged first, so the rejoin runs
// the full join protocol — rebuilding the member's ordering state everywhere
// — instead of no-opping against the existing membership.
func (d *Daemon) rejoinMember(gid, proc addr.Address, recv func(block []byte, last bool), listed bool) error {
	if listed {
		if err := d.Leave(proc, gid); err != nil {
			return fmt.Errorf("protos: merge purge of %v: %w", proc, err)
		}
	}
	if _, err := d.Join(proc, gid, JoinOptions{WantState: recv != nil, StateReceiver: recv}); err != nil {
		return fmt.Errorf("protos: merge rejoin of %v: %w", proc, err)
	}
	return nil
}

// rejoinOrPark rejoins one member and, if the rejoin fails, parks it at once:
// the local copy is gone (a merge discarded it, or a failure view wrongly
// removed the member), so without parking this live process would stay
// unhosted until an application-level intervention. A member parked anew gets
// one goroutine, which retries the rejoin at every scan tick until it is done
// or moot, or the daemon closes; whichever ends it unparks the member in the
// hold that decides it.
func (d *Daemon) rejoinOrPark(gid, proc addr.Address, recv func(block []byte, last bool), listed bool) error {
	err := d.rejoinMember(gid, proc, recv, listed)
	if err == nil {
		return nil
	}
	k := joinKey{gid.Base(), proc.Base()}
	d.bus.Publish(events.Event{Kind: events.MergePark, Group: k.gid, Detail: k.joiner.String()})
	d.mu.Lock()
	filed := d.parked[k]
	d.parked[k] = true
	d.mu.Unlock()
	if !filed {
		go func() {
			for _, err := d.nextTick(); err == nil; _, err = d.nextTick() {
				if d.retryRejoin(k, recv) {
					return
				}
			}
			d.mu.Lock() // Close ended the loop
			delete(d.parked, k)
			d.mu.Unlock()
		}()
	}
	return err
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

// retryRejoin is one retry of a parked rejoin. It reports whether the member
// left the parked set — rejoined, already hosted, or moot — and unparks it
// then.
func (d *Daemon) retryRejoin(k joinKey, recv func(block []byte, last bool)) (done bool) {
	gid, proc := k.gid, k.joiner
	d.bus.Publish(events.Event{Kind: events.MergeRetry, Group: gid, Detail: proc.String()})
	d.mu.Lock()
	if lp, ok := d.procs[proc]; !ok || !lp.alive {
		// The process died while parked; its membership died with it.
		delete(d.parked, k)
		d.mu.Unlock()
		return true
	}
	if gs, ok := d.groups[gid]; ok {
		if _, member := gs.members[proc]; member {
			// Hosted again — an earlier retry or an application-level join
			// got there first.
			delete(d.parked, k)
			d.mu.Unlock()
			return true
		}
	}
	d.mu.Unlock()

	// The membership listing must be re-evaluated against the primary's
	// current view: the removal that was pending at park time may have
	// committed (or not) since.
	view, err := d.RefreshGroupView(gid)
	if err != nil {
		return false
	}
	if err := d.rejoinMember(gid, proc, recv, view.Contains(proc)); err != nil {
		return false
	}
	// Unpark and look for the group's other parked members in one hold: two
	// of them rejoining together must not each find the other still parked.
	d.mu.Lock()
	delete(d.parked, k)
	last := true
	for o := range d.parked {
		last = last && o.gid != gid
	}
	d.mu.Unlock()
	if last {
		// The group's merge is finally whole: deliver the primary-status
		// transition the original merge withheld while rejoins failed.
		d.notifyPrimary(gid, true)
	}
	return true
}

// groupSurvey is the outcome of polling every attached site for a group: a
// primary copy's view if any site holds one, and the views of the wedged
// (non-primary) copies that answered, by site.
type groupSurvey struct {
	primary *core.View
	wedged  map[addr.SiteID]core.View
}

// surveyGroup polls every attached site for its copy of a group. It returns
// as soon as a primary copy answers; otherwise it collects the wedged
// copies' views until every queried site has answered or the call times
// out. Answers from fellow minority sites report primary=0, so a minority
// cannot masquerade as the primary.
func (d *Daemon) surveyGroup(gid addr.Address, name string) (groupSurvey, error) {
	sv := groupSurvey{wedged: make(map[addr.SiteID]core.View)}
	asked, err := d.lookupAll(name, gid, func(resp *lookupPacket) bool {
		switch v := resp.view; {
		case v.Group.IsNil():
		case resp.primary:
			sv.primary = &v
			return true
		case resp.site != 0:
			sv.wedged[resp.site] = v
		}
		return false
	})
	if asked == 0 {
		if err == nil {
			err = fmt.Errorf("%w: no reachable sites", ErrNonPrimary)
		}
		return sv, err
	}
	// Partial answers after a timeout: the caller decides whether what
	// arrived is enough (the resume path requires half the membership).
	return sv, nil
}

// resumeWedged handles total wedge: no partition anywhere retained half of
// the last agreed view (a multi-way split), so every copy is non-primary
// and there is no primary to merge into. Nothing can have committed past
// the last agreed view in that state, so if the reachable wedged copies all
// still hold that same view and together cover at least half of its
// members, the group is allowed to resume in place. The site hosting the
// oldest reachable member acts as the single initiator; it clears the
// reachable copies with a gbResume notice and then asks for a corroborated
// removal of the members that are still unreachable (the corroboration in
// the flush protects any that turn out to be alive).
func (d *Daemon) resumeWedged(gid addr.Address, staleView core.View, wedged map[addr.SiteID]core.View) error {
	for _, v := range wedged {
		if v.ID != staleView.ID {
			return fmt.Errorf("%w: wedged copies disagree (view %d vs %d); waiting for a primary",
				ErrNonPrimary, v.ID, staleView.ID)
		}
	}
	reachable := map[addr.SiteID]bool{d.site: true}
	for s := range wedged {
		reachable[s] = true
	}
	votes := 0
	for _, m := range staleView.Members {
		if reachable[m.Site] {
			votes++
		}
	}
	if votes*2 < staleView.Size() {
		return fmt.Errorf("%w: reachable wedged copies cover only %d of %d members",
			ErrNonPrimary, votes, staleView.Size())
	}
	for _, m := range staleView.Members {
		if reachable[m.Site] {
			if m.Site != d.site {
				// Another reachable site hosts an older member: its own
				// merge attempt initiates the resume, keeping the initiator
				// unique.
				return nil
			}
			break
		}
	}

	d.commitGb(slices.Collect(maps.Keys(wedged)), &gbPacket{group: gid, kind: gbResume, view: staleView})

	var unreached []addr.Address
	for _, m := range staleView.Members {
		if !reachable[m.Site] {
			unreached = append(unreached, m.Base())
		}
	}
	if len(unreached) > 0 {
		d.requestRemoval(gid, unreached, gbFail, false)
	}
	return nil
}
