package protos

import (
	"errors"

	"repro/internal/addr"
)

// Outcome is the settled fate of a GBCAST request whose call raced a failure:
// the toolkit can always say, after the fact, whether a timed-out request
// took effect.
type Outcome uint8

const (
	// OutcomeUnknown means the outcome cannot be determined (yet): the
	// request is still in flight, the group is unreachable or wedged
	// non-primary, or the id is not one this daemon minted.
	OutcomeUnknown Outcome = iota
	// OutcomeCommitted means the request executed: its payload was (or will
	// be) delivered / its membership change installed.
	OutcomeCommitted
	// OutcomeAborted means the request did not execute and never will: the
	// settlement protocol advanced the dedupe mark past it, so any
	// straggling copy is discarded rather than executed.
	OutcomeAborted
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeCommitted:
		return "committed"
	case OutcomeAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// ErrUnknownRequest reports an outcome query for an id this daemon never
// minted (or one so old its record was evicted).
var ErrUnknownRequest = errors.New("protos: unknown request id")

// reqState tracks what this daemon knows, requester-side, about a GBCAST
// request it minted.
type reqState uint8

const (
	reqPending   reqState = iota + 1 // filed, and not yet ended (groups.go)
	reqCommitted                     // the request ended answered
	reqGaveUp                        // the request failed with the outcome unresolved
	reqAborted                       // a seal round settled the request as aborted
)

// reqRecord is one reqLog entry: which group the request went to and how far
// its resolution has progressed.
type reqRecord struct {
	gid   addr.Address
	state reqState
}

// reqLogLimit bounds the requester-side request log.
const reqLogLimit = 4096

// noteRequestLocked records (or updates) the requester-side state of a
// request id. Caller holds d.mu.
func (d *Daemon) noteRequestLocked(rid int64, gid addr.Address, st reqState) {
	if rid == 0 {
		return
	}
	if prev, ok := d.reqLog.Get(rid); ok {
		// Committed and aborted are terminal; pending advances to anything;
		// gave-up advances only to a settled state. A late note must never
		// regress a record.
		terminal := prev.state == reqCommitted || prev.state == reqAborted
		settles := st == reqCommitted || st == reqAborted
		if !terminal && (settles || prev.state == reqPending && st == reqGaveUp) {
			d.reqLog.Put(rid, reqRecord{gid: prev.gid, state: st})
		}
		return
	}
	d.reqLog.Put(rid, reqRecord{gid: gid.Base(), state: st})
}

// RequestOutcome answers what happened to a GBCAST request this daemon
// minted — typically one whose Multicast call timed out. A request still in
// flight answers OutcomeUnknown immediately (it must be allowed to finish).
// A given-up request is settled: first against local first-hand knowledge
// (this site may itself have applied the commit, or sealed the id), then by
// running a gbSeal GBCAST through the group's acting coordinator. The seal
// is a full flush in which every member site reports its first-hand
// knowledge of the target id; one positive report anywhere makes the answer
// Committed — this is what keeps the answer correct across coordinator
// fail-over, where the successor may have missed a partially fanned-out
// commit that other survivors applied. With no positive report the seal's
// own commit advances every member's dedupe mark past the target, so the
// request can never execute later, making Aborted definitive rather than a
// guess.
//
// While the group is unreachable or wedged in a non-primary partition the
// query returns OutcomeUnknown with the underlying error; ask again after
// the partition heals.
func (d *Daemon) RequestOutcome(rid int64) (Outcome, error) {
	d.mu.Lock()
	rec, ok := d.reqLog.Get(rid)
	if !ok {
		d.mu.Unlock()
		return OutcomeUnknown, ErrUnknownRequest
	}
	switch rec.state {
	case reqCommitted:
		d.mu.Unlock()
		return OutcomeCommitted, nil
	case reqAborted:
		d.mu.Unlock()
		return OutcomeAborted, nil
	case reqPending:
		d.mu.Unlock()
		return OutcomeUnknown, nil
	}
	// Given up. Fast path: this site may host a (primary) copy of the group
	// with first-hand knowledge of the id.
	if gs, hosted := d.groups[rec.gid]; hosted && gs.phase.primary() {
		if out := d.settleLocked(rid, rec.gid, gs.marks.Vote(rid)); out != OutcomeUnknown {
			d.mu.Unlock()
			return out, nil
		}
	}
	d.mu.Unlock()

	// Settle remotely with a gbSeal round. One answered from a dedupe record (a
	// re-submission after the first seal round committed) carries no outcome;
	// the caller can simply ask again — by now the local fast path or a fresh
	// seal settles.
	e := d.ask(gbPacket{kind: gbSeal, group: rec.gid, sealTarget: rid})
	if e.err != nil {
		return OutcomeUnknown, e.err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.settleLocked(rid, rec.gid, e.resp.outcome), nil
}

// settleLocked records what a first-hand vote settles of a request, and
// returns it. Caller holds d.mu.
func (d *Daemon) settleLocked(rid int64, gid addr.Address, vote int64) Outcome {
	switch vote {
	case voteCommitted:
		d.noteRequestLocked(rid, gid, reqCommitted)
		return OutcomeCommitted
	case voteAborted:
		d.noteRequestLocked(rid, gid, reqAborted)
		return OutcomeAborted
	}
	return OutcomeUnknown
}
