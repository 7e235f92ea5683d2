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
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/msg"
)

// mergeRetries bounds how often a merge rejoin is retried before the merge
// attempt is abandoned (a later recovery event or MergeGroup call tries
// again from scratch while the group copy is still non-primary; once the
// local copy has been discarded the retries are the only safety net, so they
// are generous).
const mergeRetries = 5

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
// primary partition. Under MergeAuto the daemon calls it by itself when the
// failure detector observes the partition healing; under MergeManual the
// application decides when. Merging a group that is not in non-primary mode
// is a no-op.
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
		gid := gid
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
	staleView := gs.view.Clone()
	d.mu.Unlock()
	defer func() {
		// An attempt that neither resumed the copy nor discarded it leaves it
		// non-primary for the next recovery event; after either, the input
		// changes nothing.
		d.mu.Lock()
		d.step(gs, inMergeAbandon)
		d.mu.Unlock()
	}()

	primary, wedged, err := d.surveyGroup(gid, staleView.Name)
	if err != nil {
		return err
	}
	if primary == nil {
		// No partition anywhere holds a primary copy (e.g. a three-way
		// split wedged every side). If the reachable wedged copies agree,
		// resume the last agreed view in place.
		return d.resumeWedged(gid, staleView, wedged)
	}
	primView := *primary

	d.mu.Lock()
	if gs.phase != phaseMerging {
		d.mu.Unlock()
		return nil // resumed by a gbResume notice while the survey ran
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
	rejoins := make(map[addr.Address]func(block []byte, last bool))
	for a, ms := range gs.members {
		if ms.proc.alive {
			rejoins[a] = ms.stateRecv
		}
	}
	d.dropGroupLocked(gid)
	d.remoteViews[gid] = primView.Clone()
	if primView.Name != "" {
		d.nameCache[primView.Name] = gid
	}
	d.mu.Unlock()

	var firstErr error
	for proc, recv := range rejoins {
		if err := d.rejoinOrPark(gid, proc, recv, primView.Contains(proc)); err != nil && firstErr == nil {
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
		var lerr error
		for attempt := 0; attempt < mergeRetries; attempt++ {
			if lerr = d.Leave(proc, gid); lerr == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if lerr != nil {
			return fmt.Errorf("protos: merge purge of %v: %w", proc, lerr)
		}
	}
	var err error
	for attempt := 0; attempt < mergeRetries; attempt++ {
		_, err = d.Join(proc, gid, JoinOptions{
			WantState:     recv != nil,
			StateReceiver: recv,
		})
		if err == nil {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("protos: merge rejoin of %v: %w", proc, err)
}

// rejoinOrPark rejoins a live local process that has no group copy to belong
// to — its copy was discarded by a merge, or a failure view wrongly removed
// it (a stale suspicion that slipped past the corroboration, e.g. the
// member's site was unreachable at prepare time but its copy never wedged).
// A rejoin that exhausts its retries parks the member, so a later recovery
// event or scan tick tries again: without parking the process would stay
// unhosted until an application-level intervention.
func (d *Daemon) rejoinOrPark(gid, proc addr.Address, recv func(block []byte, last bool), listed bool) error {
	err := d.rejoinMember(gid, proc, recv, listed)
	if err != nil {
		d.mu.Lock()
		if !d.closed {
			k := memberKey{gid.Base(), proc.Base()}
			d.parkedMerges[k] = recv
			d.bus.Publish(events.Event{Kind: events.MergePark, Group: k.gid, Detail: k.proc.String()})
		}
		d.mu.Unlock()
	}
	return err
}

// PendingMerges returns the groups with members parked after a failed merge
// rejoin, awaiting the automatic retry.
func (d *Daemon) PendingMerges() []addr.Address {
	d.mu.Lock()
	defer d.mu.Unlock()
	var gids []addr.Address
	for k := range d.parkedMerges {
		if !slices.Contains(gids, k.gid) {
			gids = append(gids, k.gid)
		}
	}
	return gids
}

// retryParkedMerges re-runs the rejoin protocol for every parked member; the
// scan tick and every recovery event call it, so a primary that becomes
// reachable (or resumes from a total wedge) is picked up either way. At most
// one retry pass runs at a time; members that rejoin (or turn out to be
// hosted again, or dead) are unparked, the rest stay for the next pass.
func (d *Daemon) retryParkedMerges() {
	d.mu.Lock()
	if d.retryingMerges || d.closed || len(d.parkedMerges) == 0 {
		d.mu.Unlock()
		return
	}
	d.retryingMerges = true
	parked := maps.Clone(d.parkedMerges)
	d.mu.Unlock()

	for k, recv := range parked {
		d.bus.Publish(events.Event{Kind: events.MergeRetry, Group: k.gid, Detail: k.proc.String()})
		done, notify := d.retryParkedRejoin(k, recv)
		if !done {
			continue
		}
		d.mu.Lock()
		delete(d.parkedMerges, k)
		last := true
		for other := range d.parkedMerges {
			last = last && other.gid != k.gid
		}
		d.mu.Unlock()
		if notify && last {
			// The group's merge is finally whole: deliver the primary-status
			// transition the original merge withheld while rejoins failed.
			d.notifyPrimary(k.gid, true)
		}
	}

	d.mu.Lock()
	d.retryingMerges = false
	d.mu.Unlock()
}

// retryParkedRejoin re-attempts one parked rejoin. It reports whether the
// entry is resolved (rejoined, already hosted, or moot) and whether the
// resolution was an actual rejoin worth a primary-status notification.
func (d *Daemon) retryParkedRejoin(k memberKey, recv func(block []byte, last bool)) (done, notify bool) {
	d.mu.Lock()
	_, gone := d.liveProcLocked(k.proc)
	_, unhosted := d.memberLocked(k.proc, k.gid)
	d.mu.Unlock()
	if gone != nil || unhosted == nil {
		// The process died while parked and its membership with it (or the
		// daemon closed); or it is hosted again — an earlier retry or an
		// application-level join got there first.
		return true, false
	}
	// The membership listing must be re-evaluated against the primary's
	// current view: the removal that was pending at park time may have
	// committed (or not) since.
	view, err := d.refreshView(k.gid)
	if err != nil || d.rejoinMember(k.gid, k.proc, recv, view.Contains(k.proc)) != nil {
		return false, false
	}
	return true, true
}

// surveyGroup polls every attached site for its copy of a group: it returns
// a primary copy's view as soon as one answers; otherwise the views of the
// wedged (non-primary) copies that answered, by site, collected until every
// queried site has answered or the call times out. Answers from fellow
// minority sites report primary=0, so a minority cannot masquerade as the
// primary.
func (d *Daemon) surveyGroup(gid addr.Address, name string) (primary *core.View, wedged map[addr.SiteID]core.View, err error) {
	wedged = make(map[addr.SiteID]core.View)
	asked, err := d.lookupAll(name, gid, func(resp *msg.Message) bool {
		if resp.GetInt(fFound, 0) != 1 {
			return false
		}
		v := decodeView(resp.GetMessage(fView))
		if resp.GetInt(fPrimary, 0) == 1 {
			primary = &v
		} else if s := addr.SiteID(resp.GetInt(fSite, 0)); s != 0 {
			wedged[s] = v
		}
		return primary != nil
	})
	if asked > 0 {
		// Partial answers after a timeout: the caller decides whether what
		// arrived is enough (the resume path requires half the membership).
		return primary, wedged, nil
	}
	if err == nil {
		err = fmt.Errorf("%w: no reachable sites", ErrNonPrimary)
	}
	return nil, nil, err
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
	var reached, unreached []addr.Address // staleView's members, by whether their site answered
	for _, m := range staleView.Members {
		if _, answered := wedged[m.Site]; answered || m.Site == d.site {
			reached = append(reached, m)
		} else {
			unreached = append(unreached, m.Base())
		}
	}
	if len(reached)*2 < staleView.Size() {
		return fmt.Errorf("%w: reachable wedged copies cover only %d of %d members",
			ErrNonPrimary, len(reached), staleView.Size())
	}
	if len(reached) == 0 || reached[0].Site != d.site {
		// Another reachable site hosts an older member: its own merge
		// attempt initiates the resume, keeping the initiator unique.
		return nil
	}

	notice := msg.New()
	notice.PutAddress(fGroup, gid)
	notice.PutInt(fKind, gbResume)
	notice.PutMessage(fView, encodeView(staleView))
	if raw, err := encodePacket(ptGbCommit, notice); err == nil {
		d.fanoutRaw(slices.Collect(maps.Keys(wedged)), raw)
	}
	d.applyGbCommit(d.site, notice)
	if len(unreached) > 0 {
		d.requestRemoval(gid, unreached, gbFail, false)
	}
	return nil
}
