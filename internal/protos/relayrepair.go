package protos

// Relayed-CBCAST FIFO repair.
//
// A non-member CBCAST consumes a per-(sender, group) FIFO sequence number
// before the relay is shipped to the coordinator. Receivers deliver external
// messages strictly in sequence order, so a number consumed by a message
// that is never fanned out is a hole that stalls every later relayed CBCAST
// from that sender. A synchronous refusal is easy: the sender still holds
// relayMu, no later number exists, and the counter is simply rolled back.
// The hard case is a relay whose call TIMES OUT (or is aborted by the
// failure detector) and whose refusal arrives only later — by then the
// sender may have handed out later numbers, so the counter cannot be rolled
// back. This file reconciles that case:
//
//   - every remote relay is tracked in d.lostRelays by call id before the
//     request reaches the wire, so a response that arrives after the caller
//     gave up still finds the sequence number it was for;
//   - a late acceptance needs nothing — the coordinator fanned the message
//     out and the number stands;
//   - a late refusal is repaired under relayMu: if no later number was
//     handed out the counter is rolled back exactly as a synchronous
//     refusal would have been, otherwise a null filler message (fNull) is
//     relayed carrying the orphaned sequence number — it advances every
//     receiver's expected sequence but is never handed to the application;
//   - a filler whose own outcome is unknown leaves the hole filed in the
//     repair table (repairs.go) and the scan tick retries it; duplicate
//     fillers are harmless because receivers drop external sequences below
//     their expectation.
import (
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/msg"
)

// lostRelay identifies the FIFO sequence a tracked relay call consumed.
type lostRelay struct {
	lp  *localProc
	gid addr.Address
	seq uint64
}

// maxLostRelays bounds the tracking table. Entries persist only for calls
// that ended in timeout or detector abort, so the bound is a backstop
// against a long-partitioned coordinator, not a working-set size.
const maxLostRelays = 512

// relayCBCASTCall ships a relayed CBCAST (which has consumed FIFO sequence
// seq) to the coordinator site and waits for the acknowledgement. Unlike the
// generic call path it keeps the exchange tracked in d.lostRelays whenever
// the outcome is unknown — timeout, or a failure-detector abort — so a
// response that arrives after this function returns is reconciled by
// respond/reconcileLostRelay instead of dropped.
func (d *Daemon) relayCBCASTCall(site addr.SiteID, pkt *msg.Message, lp *localProc, gid addr.Address, seq uint64) error {
	if site == d.site {
		// The local path is synchronous: the outcome is known before the
		// call returns, so no tracking is needed (mirrors relayCall).
		return d.relayMulticast(d.site, pkt, false)
	}
	id, ch := d.newCall(site)
	// Track the call, whose sequence number must be reconciled if a response
	// arrives after the caller gave up, before the request can reach the
	// wire: a response cannot race past a registration that precedes the send.
	d.mu.Lock()
	d.lostRelays.Put(id, lostRelay{lp: lp, gid: gid, seq: seq})
	d.mu.Unlock()
	_, err := d.exchange(id, ch, site, ptData, pkt)
	// Unregister the call first, then drain: a response delivered to the
	// channel in the race window of a timeout is handled here, and anything
	// later is routed through d.lostRelays by respond.
	d.dropCall(id)
	if errors.Is(err, ErrTimeout) {
		select {
		case resp := <-ch:
			err = respError(resp)
		default:
		}
	}
	if !errors.Is(err, ErrTimeout) && !errors.Is(err, errSiteFailed) {
		// The outcome is known. After a timeout, or a detector abort (the
		// request is still queued in the reliable transport and may yet be
		// delivered either way), the entry stays tracked so the real response
		// reconciles the sequence.
		d.mu.Lock()
		d.lostRelays.Delete(id)
		d.mu.Unlock()
	}
	return err
}

// reconcileLostRelay handles a relay response that arrived after its caller
// gave up. Runs on the transport handler goroutine; d.mu is not held.
func (d *Daemon) reconcileLostRelay(lr lostRelay, resp *msg.Message) {
	if !resp.Has(fErr) {
		// Late acceptance: the coordinator fanned the message out and every
		// receiver consumes the sequence. Nothing to repair.
		return
	}
	err := wireError("protos: remote error: %s", resp.GetString(fErr, "unknown"))
	if errors.Is(err, errSiteFailed) {
		// Defensive: detector aborts are injected into call channels, never
		// through respond, so this cannot happen — but if it did, the
		// outcome would still be unknown and repairing would be wrong.
		return
	}
	// A confirmed refusal: no receiver will ever consume the sequence. At
	// most one repair is filed per consumed sequence number, and the table's
	// single drain keeps concurrent late refusals and scan ticks from racing
	// two repairs of the same hole.
	d.repairs.add(repairKey{gid: lr.gid, proc: lr.lp.addr.Base(), seq: lr.seq}, func() bool { return d.repairRelayHole(lr) })
}

// repairRelayHole resolves one confirmed-refused sequence number. Returns
// true when the hole no longer needs tracking. Takes relayMu, so repairs
// serialize with the sender's ongoing relays: the rollback-vs-filler
// decision is made against a frozen counter.
func (d *Daemon) repairRelayHole(lr lostRelay) bool {
	lp := lr.lp
	lp.relayMu.Lock()
	defer lp.relayMu.Unlock()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return true
	}
	if lp.extSeq[lr.gid] == lr.seq {
		// No later number was handed out: undo the refusal the cheap way,
		// exactly as a synchronous refusal would have been.
		lp.extSeq[lr.gid]--
		d.counters.CBCASTs--
		d.bus.Publish(events.Event{
			Kind: events.RelayRollback, Group: lr.gid,
			Detail: fmt.Sprintf("seq %d", lr.seq),
		})
		d.mu.Unlock()
		return true
	}
	d.mu.Unlock()
	return d.sendNullRelay(lp, lr.gid, lr.seq)
}

// sendNullRelay fills an orphaned FIFO sequence with a null message: a
// relayed CBCAST carrying fNull that consumes the sequence in every
// receiver's external-sender queue but is never delivered to applications
// (deliverDataLocked drops it). Returns true when the filler was accepted.
func (d *Daemon) sendNullRelay(lp *localProc, gid addr.Address, seq uint64) bool {
	view, ok := d.CurrentView(gid)
	if !ok {
		v, err := d.refreshView(gid)
		if err != nil {
			return false
		}
		view = v
	}
	for attempt := 0; attempt < 2; attempt++ {
		d.mu.Lock()
		coord := d.actingCoordinator(view)
		lp.nextSeq++
		id := core.MsgID{Sender: lp.addr.Base(), Seq: lp.nextSeq}
		d.mu.Unlock()
		if coord.IsNil() {
			return false
		}
		pkt := d.buildDataPacket(CBCAST, gid, view.ID, id, lp.addr, -1, 0, msg.New())
		pkt.PutInt(fRelay, 1)
		pkt.PutInt(fNull, 1)
		pkt.PutInt(fExtSeq, int64(seq))
		err := d.relayCBCASTCall(coord.Site, pkt, lp, gid, seq)
		switch {
		case err == nil:
			d.bus.Publish(events.Event{
				Kind: events.RelayNullFill, Group: gid, Msg: id,
				Detail: fmt.Sprintf("seq %d", seq),
			})
			return true
		case (errors.Is(err, ErrUnknownGroup) || errors.Is(err, ErrNonPrimary)) && attempt == 0:
			// The cached view is stale: the site asked no longer hosts the
			// group, or its copy is wedged in a minority. The primary's
			// sites answer the refresh with a higher view id, which wins
			// the cache; the scan retries if the refresh races them.
			if v, rerr := d.refreshView(gid); rerr == nil {
				view = v
				continue
			}
			return false
		default:
			// Timeout / detector abort leaves the filler tracked in
			// lostRelays and the hole parked; the scan retries. A duplicate
			// filler is harmless — receivers drop stale external sequences.
			return false
		}
	}
	return false
}
