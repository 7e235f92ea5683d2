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
// snapshot (counters, each peer's unacknowledged records and queued messages,
// suspicions; its calls, a lookup's with the sites still to answer; the heads
// of its request queues and its parked rejoins; and for each copy the view,
// phase and released clock, the causal queue (a held relay with the stamp it
// waits for, a submission with its clock), the submissions, what the flush
// parked, the members' state transfer, the GBCAST queue and round, and the
// merge survey's lookup), then, in a second hold of d.mu, what the snapshot
// leaves out: the transport's sends, the cached views and names, what each
// call waits in, and each copy's carried ack, dedupe marks, recent log, flush
// deadline, round's silent and acking sites and survey's answers. The current
// tick is not in it, so two dumps are equal when no step moved the daemon.
func dump(d *Daemon) string {
	s := d.Snapshot()
	d.mu.Lock()
	defer d.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "counters %+v sent %d windows %v suspected %v remote %v names %v\n", s.Counters,
		d.tr.Stats().MessagesSent, s.Windows, s.Suspected, d.remoteViews, d.nameCache)
	for _, c := range s.Calls {
		var waiter any
		if pc := d.calls[c.ID]; pc != nil {
			waiter = pc.val
		}
		fmt.Fprintf(&b, "call %d: %T wants type %d of site %d by tick %d, %d sites to answer\n", c.ID, waiter, c.Want, c.Site, c.Deadline, c.ToAnswer)
	}
	for _, e := range s.Requests {
		fmt.Fprintf(&b, "request %v: kind %d id %#x call %d site %d tries %d next try at tick %d (+%d queued)\n",
			e.Group, e.Kind, e.ID, e.Call, e.Site, e.Tries, e.Deadline, e.Queued)
	}
	for _, r := range s.Rejoins {
		fmt.Fprintf(&b, "parked rejoin %v of %v: busy %v err %v\n", r.Joiner, r.Group, r.Busy, r.Err)
	}
	for _, g := range s.Groups {
		var carried int64
		var recent, skipped int
		var marks map[int64]markRange
		var flushDeadline uint64
		var openRound *gbRound
		var openSurvey *survey
		if gs := d.groups[g.View.Group]; gs != nil {
			carried, recent, marks, skipped, flushDeadline = gs.carried, len(gs.recent.Keys()), gs.marks.ranges, len(gs.marks.skipped.Keys()), gs.flushDeadline
			openRound, openSurvey = gs.round, gs.survey
		}
		fmt.Fprintf(&b, "group %v: view %v phase %v clock %v carried %d recent %d marks %v skipped %d flush deadline %d\n", g.View.Group, g.View,
			phase(g.Phase), g.Clock, carried, recent, marks, skipped, flushDeadline)
		for _, ms := range g.Members {
			fmt.Fprintf(&b, "  member %v: awaiting state %v xfer %d/%d held %d\n", ms.Proc, ms.AwaitingState, ms.XferID, ms.Blocks, ms.Held)
		}
		for _, pkt := range g.Pending {
			switch {
			case pkt.Call != 0:
				fmt.Fprintf(&b, "  held relay %v (call %d of site %d) waits for %s: vt %v\n", pkt.ID, pkt.Call, pkt.ID.Sender.Site, pkt.After, pkt.VT)
			case pkt.Rank < 0:
				fmt.Fprintf(&b, "  held submission %v waits for vt %v\n", pkt.ID, pkt.VT)
			default:
				fmt.Fprintf(&b, "  pending %v %v rank %d vt %v\n", pkt.Proto, pkt.ID, pkt.Rank, pkt.VT)
			}
		}
		if len(g.Submitted) > 0 {
			fmt.Fprintf(&b, "  submitted %v\n", g.Submitted)
		}
		for _, pkt := range g.Parked {
			fmt.Fprintf(&b, "  parked %v %v (relay call %d, after %s)\n", pkt.Proto, pkt.ID, pkt.Call, pkt.After)
		}
		if len(g.Queue) > 0 {
			fmt.Fprintf(&b, "  GBCAST queue %d, head kind %d id %#x from site %d\n", len(g.Queue), g.Queue[0].Kind, g.Queue[0].ID, g.Queue[0].Site)
		}
		if r := g.Round; r != nil {
			var silent, acked []addr.SiteID
			if openRound != nil {
				silent, acked = openRound.silent, slices.Sorted(maps.Keys(openRound.acks))
			}
			fmt.Fprintf(&b, "  round: kind %d call %d silent %v tries %d deadline %d acks from %v\n", r.Kind, r.Call, silent, r.Tries, r.Deadline, acked)
		}
		if sv := g.Survey; sv != nil {
			fmt.Fprintf(&b, "  survey: call %d to answer %d", sv.ID, sv.ToAnswer)
			if sv := openSurvey; sv != nil {
				fmt.Fprintf(&b, " wedged %d primary %v rejoins %d", len(sv.look.wedged), !sv.look.view.Group.IsNil(), sv.rejoins)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
