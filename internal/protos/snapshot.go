package protos

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Snapshot is what a daemon holds that a step could be waiting on, read in one
// hold of its lock. A slice made of a map is sorted, one of a queue in order.
type Snapshot struct {
	Counters  Counters
	Windows   map[addr.SiteID]transport.Window
	Suspected []addr.SiteID
	Calls     []CallSnapshot
	Requests  []RequestSnapshot // the head of each group's request queue
	Rejoins   []RejoinSnapshot  // parked after a failed merge
	Groups    []GroupSnapshot
}

// CallSnapshot is a call waiting until scan tick Deadline for an answer of
// packet type Want from Site (0: any); a lookup's has sites still ToAnswer.
type CallSnapshot struct {
	ID       int64
	Want     byte
	Site     addr.SiteID
	Deadline uint64
	ToAnswer int
}

// RequestSnapshot is a GBCAST request or round: its call to Site (in a copy's
// queue, the requester), its tries, the next one's scan tick, and the Queued.
type RequestSnapshot struct {
	Group          addr.Address
	Kind, ID, Call int64
	Site           addr.SiteID
	Tries, Queued  int
	Deadline       uint64
}

// RejoinSnapshot is a member's rejoin, parked after a failed merge.
type RejoinSnapshot struct {
	Group, Joiner addr.Address
	Busy          bool
	Err           error
}

// GroupSnapshot is a copy in Phase 0 (normal), 1 (flushing) or 2 (non-primary)
// and what waits in it; Submitted are this site's casts not stamped yet.
type GroupSnapshot struct {
	View            core.View
	Phase           uint8
	Clock           vclock.VC // as released
	Members         []MemberSnapshot
	Pending, Parked []PacketSnapshot
	Submitted       []core.MsgID
	Queue           []RequestSnapshot
	Round           *RequestSnapshot
	Survey          *CallSnapshot
}

// MemberSnapshot is a member's state transfer: Blocks of XferID, Held deliveries.
type MemberSnapshot struct {
	Proc          addr.Address
	AwaitingState bool
	XferID        uint64
	Blocks, Held  int
}

// PacketSnapshot is a data packet a copy holds. Rank is -1 for a submission or
// a relay, answered by Call, which waits for its sender's cast After.
type PacketSnapshot struct {
	Proto Protocol
	ID    core.MsgID
	Rank  int16
	VT    vclock.VC
	Call  int64
	After string
}

// Snapshot returns what the daemon holds that a step could be waiting on.
func (d *Daemon) Snapshot() Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := Snapshot{Counters: d.counters, Windows: d.tr.Windows(), Suspected: slices.Sorted(maps.Keys(d.suspected))}
	packet := func(p *dataPacket) PacketSnapshot {
		return PacketSnapshot{p.proto, p.id, p.rank, p.vt.Clone(), p.call, fmt.Sprintf("%+v", p.after)}
	}
	for _, id := range slices.Sorted(maps.Keys(d.calls)) {
		c, toAnswer := d.calls[id], 0
		if lk, ok := c.val.(*lookup); ok {
			toAnswer = lk.asked - lk.heard
		}
		s.Calls = append(s.Calls, CallSnapshot{id, c.want, c.site, c.deadline, toAnswer})
	}
	for _, gid := range slices.SortedFunc(maps.Keys(d.requests), addr.Address.Compare) {
		if q := d.requests[gid]; len(q) > 0 {
			s.Requests = append(s.Requests, RequestSnapshot{gid, q[0].kind, q[0].reqID, q[0].call, q[0].site, q[0].tries, len(q) - 1, q[0].deadline})
		}
	}
	for _, k := range slices.SortedFunc(maps.Keys(d.parked), func(a, b joinKey) int { return cmp.Or(a.gid.Compare(b.gid), a.joiner.Compare(b.joiner)) }) {
		s.Rejoins = append(s.Rejoins, RejoinSnapshot{k.gid, k.joiner, d.parked[k].busy, d.parked[k].err})
	}
	for _, gid := range slices.SortedFunc(maps.Keys(d.groups), addr.Address.Compare) {
		gs := d.groups[gid]
		g := GroupSnapshot{View: gs.view.Clone(), Phase: uint8(gs.phase), Clock: gs.causal.Clock(),
			Submitted: slices.SortedFunc(maps.Keys(gs.submitted), func(a, b core.MsgID) int { return cmp.Or(a.Sender.Compare(b.Sender), cmp.Compare(a.Seq, b.Seq)) })}
		for _, a := range slices.SortedFunc(maps.Keys(gs.members), addr.Address.Compare) {
			ms := gs.members[a]
			g.Members = append(g.Members, MemberSnapshot{a, ms.awaitingState, ms.xferID, len(ms.xferBuf), len(ms.held)})
		}
		for _, o := range gs.causal.Pending() {
			g.Pending = append(g.Pending, packet(o.Payload.(*dataPacket)))
		}
		for _, p := range gs.parked {
			g.Parked = append(g.Parked, packet(p))
		}
		for _, w := range gs.gbQueue {
			g.Queue = append(g.Queue, RequestSnapshot{Group: gid, Kind: w.kind, ID: w.reqID, Site: w.replyTo})
		}
		if r := gs.round; r != nil {
			g.Round = &RequestSnapshot{Group: gid, Kind: r.req.kind, Call: r.call, Tries: r.tries, Deadline: r.deadline}
		}
		if sv := gs.survey; sv != nil {
			g.Survey = &CallSnapshot{ID: sv.look.call, ToAnswer: sv.look.asked - sv.look.heard}
		}
		s.Groups = append(s.Groups, g)
	}
	return s
}
