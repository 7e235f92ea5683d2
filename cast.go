package isis

import (
	"time"

	"repro/internal/addr"
	"repro/internal/msg"
)

// All requests replies from every destination of a Cast (Replies(All)).
const All = -1

// Reply classification values carried in the FReply system field.
const (
	replyNormal = 1
	replyNull   = 2
)

// RequestID names a group request for later outcome queries. A Cast with
// TrackRequest fills one in; Process.Outcome answers what became of it.
type RequestID int64

// CastOption configures one Cast or Query call.
type CastOption func(*castOptions)

type castOptions struct {
	want    int
	timeout time.Duration
	track   *RequestID
}

// Replies makes the Cast wait for n normal replies (or Replies(All) for a
// reply from every destination) before returning. Without a Replies option a
// Cast is asynchronous: the caller continues immediately and nil replies are
// returned.
func Replies(n int) CastOption { return func(o *castOptions) { o.want = n } }

// CastTimeout overrides the process's configured reply timeout for this one
// call.
func CastTimeout(d time.Duration) CastOption { return func(o *castOptions) { o.timeout = d } }

// TrackRequest records the request id the system assigned to this call's
// group request, so its fate can be queried with Process.Outcome if the call
// itself fails or times out. The id is filled in even when Cast returns an
// error, as long as the request was assigned an id before the failure (a
// zero id means the request never entered the system and cannot have
// committed). Only GBCAST requests are tracked; for other protocols the id
// stays zero.
func TrackRequest(rid *RequestID) CastOption { return func(o *castOptions) { o.track = rid } }

// Cast sends a message to a destination list — typically a group address,
// possibly plus individual processes — using the selected multicast
// primitive, and collects replies (Section 3.2 "Broadcasts and group RPC").
//
// With no options the broadcast is asynchronous: the caller continues
// immediately and nil is returned. Replies(n) waits for n normal replies and
// Replies(All) for a reply from every destination. Null replies (sent by
// destinations that do not intend to answer, such as hot standbys) are never
// returned but count as "this destination has responded", so a caller
// waiting for All is not delayed by them. If destinations fail before enough
// replies arrive, Cast returns the replies it has together with
// ErrNoResponders. CastTimeout bounds the wait per call; TrackRequest makes
// a GBCAST's fate queryable with Outcome after a failure.
func (p *Process) Cast(proto Protocol, dests []Address, entry EntryID, m *Message, opts ...CastOption) ([]*Message, error) {
	o := castOptions{timeout: p.replyTimeout}
	for _, opt := range opts {
		opt(&o)
	}
	if o.track != nil {
		*o.track = 0
	}
	if !p.Alive() {
		return nil, ErrProcessKilled
	}
	if m == nil {
		m = NewMessage()
	}
	// The one copy on the send side: the daemon takes ownership of this
	// stripped clone, and the caller keeps its message.
	payload := m.Clone()
	payload.StripSystemFields()

	if o.want == 0 {
		_, rid, err := p.site.daemon.MulticastRequest(p.addr, proto, addr.List(dests), entry, payload)
		if o.track != nil {
			*o.track = RequestID(rid)
		}
		return nil, err
	}

	// Register the pending call before sending so replies cannot race past.
	p.mu.Lock()
	p.session++
	session := p.session
	call := &pendingCall{wake: make(chan struct{}, 1)}
	p.pending[session] = call
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.pending, session)
		p.mu.Unlock()
	}()
	payload.PutInt(msg.FSession, session)

	_, rid, err := p.site.daemon.MulticastRequest(p.addr, proto, addr.List(dests), entry, payload)
	if o.track != nil {
		*o.track = RequestID(rid)
	}
	if err != nil {
		return nil, err
	}
	return p.collectReplies(call, dests, o.want, o.timeout)
}

// Query is shorthand for a Cast that waits for exactly one reply and returns
// it (or nil with an error). Options other than Replies are honoured (a
// Replies option is ignored: Query always wants exactly one reply).
func (p *Process) Query(proto Protocol, dests []Address, entry EntryID, m *Message, opts ...CastOption) (*Message, error) {
	replies, err := p.Cast(proto, dests, entry, m, append(append([]CastOption{}, opts...), Replies(1))...)
	if err != nil {
		return nil, err
	}
	if len(replies) == 0 {
		return nil, ErrNoResponders
	}
	return replies[0], nil
}

// recheckEvery is how often a waiting Cast re-examines its destinations
// without having been woken by a reply or a view change: it bounds how long a
// failure among destinations this process has no membership callbacks for
// goes unnoticed. Every thirtieth recheck also refreshes the cached views of
// groups this site does not host, so remote failures are noticed too.
const recheckEvery = 5 * time.Millisecond

// collectReplies waits until the desired number of normal replies has
// arrived, or every remaining destination has failed or declined (null
// replies), or the reply timeout expires. Replies are recorded by onDeliver;
// this side sleeps until a reply or a view change wakes it.
func (p *Process) collectReplies(call *pendingCall, dests []Address, want int, timeout time.Duration) ([]*Message, error) {
	deadline := time.Now().Add(timeout)
	timer := time.NewTimer(min(timeout, recheckEvery))
	defer timer.Stop()
	expected := p.expectedResponders(dests)
	for rechecks := 1; ; {
		p.mu.Lock()
		replies, responded := call.replies[:len(call.replies):len(call.replies)], len(call.responded)
		p.mu.Unlock()
		switch {
		case want != All && len(replies) >= want:
			return replies, nil
		case responded >= expected:
			// Everyone who can still answer has; null replies and failures
			// may have left too few normal replies.
			if want == All {
				return replies, nil
			}
			return replies, ErrNoResponders
		}
		select {
		case <-call.wake:
		case <-timer.C:
			left := time.Until(deadline)
			if left <= 0 {
				return replies, ErrReplyTimeout
			}
			if rechecks++; rechecks%30 == 0 {
				for _, dst := range dests {
					if dst.IsGroup() {
						_, _ = p.site.daemon.RefreshGroupView(dst)
					}
				}
			}
			timer.Reset(min(left, recheckEvery))
		}
		// Destinations may have failed: recompute how many can still answer.
		// Members that already responded stay counted.
		if live := p.expectedResponders(dests); live < expected {
			expected = live
		}
	}
}

// expectedResponders estimates how many destinations can still reply: the
// site's current membership of any group destination plus the explicit
// process destinations. It reads the site's view, not the process's: a Cast
// made by a handler waits for a view that is queued behind that handler.
func (p *Process) expectedResponders(dests []Address) int {
	n := 0
	for _, d := range dests {
		if d.IsGroup() {
			if v, ok := p.site.daemon.CurrentView(d); ok {
				n += v.Size()
			}
			continue
		}
		n++
	}
	return n
}

// Reply answers a request received by this process (the reply is itself a
// multicast, so copies can be sent elsewhere with ReplyWithCopies). The
// request must have been sent by a Cast that asked for replies.
func (p *Process) Reply(req *Message, reply *Message) error {
	return p.replyInternal(req, reply, replyNormal, nil, 0)
}

// NullReply tells the caller that this process does not intend to send a
// normal reply (used by standbys and non-participants so callers waiting for
// ALL replies are not delayed; Section 3.2).
func (p *Process) NullReply(req *Message) error {
	return p.replyInternal(req, NewMessage(), replyNull, nil, 0)
}

// ReplyWithCopies answers a request and sends a copy of the reply to the
// given additional destinations at the given entry (the coordinator–cohort
// tool uses this so cohorts learn the computation finished; Section 6).
func (p *Process) ReplyWithCopies(req *Message, reply *Message, copies []Address, copyEntry EntryID) error {
	return p.replyInternal(req, reply, replyNormal, copies, copyEntry)
}

func (p *Process) replyInternal(req, reply *Message, kind uint8, copies []Address, copyEntry EntryID) error {
	if !p.Alive() {
		return ErrProcessKilled
	}
	if req == nil || !req.Has(msg.FSession) {
		return ErrNotARequest
	}
	session := req.Session()
	out := reply.Clone()
	out.StripSystemFields()
	if err := p.site.daemon.Reply(p.addr, req.Sender(), session, kind, out); err != nil {
		return err
	}
	if len(copies) > 0 {
		cp := reply.Clone()
		cp.StripSystemFields()
		cp.PutInt("cc-origin-session", session)
		if _, err := p.site.daemon.Multicast(p.addr, CBCAST, addr.List(copies), copyEntry, cp); err != nil {
			return err
		}
	}
	return nil
}
