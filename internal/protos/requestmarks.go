package protos

import "repro/internal/core"

// requestMarks is one site's record of which GBCAST request ids have been
// settled at its copy of a group. Every member site keeps it, not just the
// coordinator, so that after a coordinator failure the successor can
// recognise a re-submitted request that already committed and answer it
// instead of running the protocol a second time.
//
// The record is a high-water mark per requester (the site|incarnation high
// word of the id) rather than a bounded history of ids, so a slow retrier
// can never slip past it no matter how many GBCASTs intervene. That is sound
// because a requester's requests for a group are one queue (d.requests), run
// one at a time in the order they were filed and their ids minted: a
// requester's commits happen in id order, so an id at or below the mark has
// either committed or was abandoned by its requester before the marked id
// was minted — and the abandoned ones are remembered individually (skipped),
// which is what makes an Aborted answer definitive: a skipped id counts as
// handled and can never execute later.
type requestMarks struct {
	ranges  map[int64]markRange              // per requester; made by the first Record
	skipped core.BoundedLog[int64, struct{}] // ids the mark passed without a commit
}

// markRange is what a site has tracked first-hand for one requester: from
// the first counter it ever recorded (a site that joined or merged back late
// has no evidence either way about older ids) up to the highest settled.
type markRange struct{ base, high int64 }

// gbSkipLimit bounds the per-group memory of individually skipped request
// ids; gbSkipGapCap bounds how large a jump of the high-water mark still
// records each jumped id (a larger jump would mean the requester abandoned
// over a thousand consecutive requests — the remaining ambiguity is accepted
// rather than recorded unboundedly).
const (
	gbSkipLimit  = 4096
	gbSkipGapCap = 1024
)

// Per-site first-hand knowledge of a request id's outcome, carried in gbSeal
// acks (fOutcome) and commits.
const (
	voteUnknown   = int64(0) // no first-hand knowledge
	voteCommitted = int64(1) // this site applied the request's commit
	voteAborted   = int64(2) // the id was sealed aborted / jumped by the mark
)

func newRequestMarks() requestMarks {
	return requestMarks{skipped: core.NewBoundedLog[int64, struct{}](gbSkipLimit)}
}

// reqIDParts splits a stable request id into its requester key (site and
// incarnation, the high word) and per-requester counter (the low word).
func reqIDParts(reqID int64) (requester, counter int64) {
	return reqID >> 32, reqID & 0xffffffff
}

// Committed reports whether the id must not execute (again) here: its
// counter is at or below the requester's mark.
func (m *requestMarks) Committed(reqID int64) bool {
	requester, counter := reqIDParts(reqID)
	return counter <= m.ranges[requester].high
}

// Vote reports this site's first-hand knowledge of the id's outcome.
// Committed requires positive evidence: the counter must lie inside the
// range this site has actually tracked and not be marked skipped.
func (m *requestMarks) Vote(reqID int64) int64 {
	if _, skipped := m.skipped.Get(reqID); skipped {
		return voteAborted
	}
	requester, counter := reqIDParts(reqID)
	r, tracked := m.ranges[requester]
	if !tracked || counter < r.base || counter > r.high {
		return voteUnknown
	}
	return voteCommitted
}

// Record advances the requester's mark to a committed id. Any id the mark
// jumps over was abandoned by the requester; each is recorded as skipped so
// Vote never mistakes it for committed.
func (m *requestMarks) Record(reqID int64) {
	requester, counter := reqIDParts(reqID)
	r, tracked := m.ranges[requester]
	if !tracked {
		r.base = counter
	}
	if counter > r.high {
		if r.high > 0 && counter-r.high-1 <= gbSkipGapCap {
			for c := r.high + 1; c < counter; c++ {
				m.skipped.Put(requester<<32|c, struct{}{})
			}
		}
		r.high = counter
	}
	if m.ranges == nil {
		m.ranges = make(map[int64]markRange)
	}
	m.ranges[requester] = r
}

// Seal settles an earlier id by decree of a gbSeal round. An abort marks the
// id skipped before the mark advances past it; either way the advance makes
// the answer final — any straggling copy of the request is now Committed in
// the dedupe sense and can never run after being reported aborted.
func (m *requestMarks) Seal(reqID int64, committed bool) {
	if committed {
		m.skipped.Delete(reqID)
	} else {
		m.skipped.Put(reqID, struct{}{})
	}
	m.Record(reqID)
}
