package protos

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/addr"
)

// clusters holds each running test's cluster, so a wait that times out can
// show what every site holds (waitFor).
var clusters sync.Map // *testing.T → *testCluster

// register makes tc the cluster whose sites a timed-out wait of t dumps.
func (tc *testCluster) register(t *testing.T) {
	clusters.Store(t, tc)
	t.Cleanup(func() { clusters.Delete(t) })
}

// dumps renders every site of t's cluster, its scan tick and dump.
func dumps(t *testing.T) string {
	v, ok := clusters.Load(t)
	if !ok {
		return ""
	}
	tc := v.(*testCluster)
	var b strings.Builder
	for _, s := range slices.Sorted(maps.Keys(tc.daemons)) {
		d := tc.daemons[s]
		d.mu.Lock()
		tick, closed := d.tick, d.closed
		d.mu.Unlock()
		fmt.Fprintf(&b, "\n--- site %d, tick %d, closed %v\n%s", s, tick, closed, dump(d))
	}
	return b.String()
}

// dump renders what a daemon holds that a step could be waiting on: its
// counters, sends, each peer's unacknowledged records and queued messages,
// views and names; its calls, a lookup's with the sites still to answer; the
// heads of its request queues and its parked rejoins; and for each copy the view, phase and released clock, the causal queue (a held relay with
// the stamp it waits for, a submission with its clock), the submissions, the
// carried ack, the dedupe marks, what the flush parked, the members' state
// transfer, the GBCAST queue and round, and the merge survey. The current tick
// is not in it, so two dumps are equal when no step moved the daemon.
func dump(d *Daemon) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "counters %+v sent %d windows %v suspected %v remote %v names %v\n", d.counters,
		d.tr.Stats().MessagesSent, d.tr.Windows(), slices.Sorted(maps.Keys(d.suspected)), d.remoteViews, d.nameCache)
	for _, id := range slices.Sorted(maps.Keys(d.calls)) {
		c, toAnswer := d.calls[id], 0
		if lk, ok := c.val.(*lookup); ok {
			toAnswer = lk.asked - lk.heard
		}
		fmt.Fprintf(&b, "call %d: %T wants type %d of site %d by tick %d, %d sites to answer\n", id, c.val, c.want, c.site, c.deadline, toAnswer)
	}
	for _, gid := range slices.SortedFunc(maps.Keys(d.requests), addr.Address.Compare) {
		if q := d.requests[gid]; len(q) > 0 {
			e := q[0]
			fmt.Fprintf(&b, "request %v: kind %d id %#x call %d site %d tries %d next try at tick %d (+%d queued)\n",
				gid, e.kind, e.reqID, e.call, e.site, e.tries, e.deadline, len(q)-1)
		}
	}
	var rejoins []string
	for k, r := range d.parked {
		rejoins = append(rejoins, fmt.Sprintf("parked rejoin %v of %v: busy %v err %v\n", k.joiner, k.gid, r.busy, r.err))
	}
	slices.Sort(rejoins)
	b.WriteString(strings.Join(rejoins, ""))
	for _, gid := range slices.SortedFunc(maps.Keys(d.groups), addr.Address.Compare) {
		gs := d.groups[gid]
		fmt.Fprintf(&b, "group %v: view %v phase %v clock %v carried %d recent %d marks %v skipped %d flush deadline %d\n", gid, gs.view,
			gs.phase, gs.causal.Clock(), gs.carried, len(gs.recent.Keys()), gs.marks.ranges, len(gs.marks.skipped.Keys()), gs.flushDeadline)
		for _, a := range slices.SortedFunc(maps.Keys(gs.members), addr.Address.Compare) {
			ms := gs.members[a]
			fmt.Fprintf(&b, "  member %v: joined %d awaiting state %v xfer %d/%d held %d\n", a, ms.joinedView, ms.awaitingState, ms.xferID, len(ms.xferBuf), len(ms.held))
		}
		for _, o := range gs.causal.Pending() {
			switch pkt := o.Payload.(*dataPacket); {
			case pkt.call != 0:
				fmt.Fprintf(&b, "  held relay %v (call %d of site %d) waits for %+v: vt %v\n", pkt.id, pkt.call, pkt.id.Sender.Site, pkt.after, pkt.vt)
			case pkt.rank < 0:
				fmt.Fprintf(&b, "  held submission %v waits for vt %v\n", pkt.id, pkt.vt)
			default:
				fmt.Fprintf(&b, "  pending %v %v of view %d rank %d vt %v\n", pkt.proto, pkt.id, pkt.view, pkt.rank, pkt.vt)
			}
		}
		if len(gs.submitted) > 0 {
			var ids []string
			for id := range gs.submitted {
				ids = append(ids, id.String())
			}
			slices.Sort(ids)
			fmt.Fprintf(&b, "  submitted %v\n", ids)
		}
		for _, pkt := range gs.parked {
			fmt.Fprintf(&b, "  parked %v %v of view %d (relay call %d, after %+v)\n", pkt.proto, pkt.id, pkt.view, pkt.call, pkt.after)
		}
		if len(gs.gbQueue) > 0 {
			fmt.Fprintf(&b, "  GBCAST queue %d, head kind %d id %#x from site %d\n", len(gs.gbQueue), gs.gbQueue[0].kind, gs.gbQueue[0].reqID, gs.gbQueue[0].replyTo)
		}
		if r := gs.round; r != nil {
			fmt.Fprintf(&b, "  round: kind %d call %d silent %v tries %d deadline %d acks from %v\n",
				r.req.kind, r.call, r.silent, r.tries, r.deadline, slices.Sorted(maps.Keys(r.acks)))
		}
		if sv := gs.survey; sv != nil {
			fmt.Fprintf(&b, "  survey: call %d to answer %d wedged %d primary %v rejoins %d\n", sv.look.call, sv.look.asked-sv.look.heard,
				len(sv.look.wedged), !sv.look.view.Group.IsNil(), sv.rejoins)
		}
	}
	return b.String()
}
