package protos

import (
	"encoding/binary"
	"fmt"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/vclock"
)

// Protocol selects which multicast primitive carries a message
// (Section 3.1).
type Protocol uint8

const (
	// CBCAST delivers messages in causal order; it is asynchronous (the
	// sender continues immediately).
	CBCAST Protocol = iota + 1
	// ABCAST delivers messages atomically and in the same total order at
	// every destination.
	ABCAST
	// GBCAST is ordered with respect to every other multicast and to
	// membership changes; the system itself uses it for view changes and
	// the configuration tool exposes it to applications.
	GBCAST
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case CBCAST:
		return "CBCAST"
	case ABCAST:
		return "ABCAST"
	case GBCAST:
		return "GBCAST"
	default:
		return fmt.Sprintf("protocol(%d)", uint8(p))
	}
}

// Daemon wire envelope. Every daemon-to-daemon packet begins with a small
// fixed-offset header followed by the marshalled msg.Message body:
//
//	byte 0   wireVersion
//	byte 1   packet type (one of the pt* constants below)
//	bytes 2+ marshalled msg.Message body (none for heartbeats; a fixed layout for five types)
//
// Keeping the packet type at a fixed offset (rather than in a "&type" body
// field, as earlier revisions did) lets handleTransport dispatch without
// decoding the body, lets heartbeats skip message marshalling entirely, and
// lets a multicast fan-out share one encoded body across every destination
// site: the per-destination work is writing two header bytes, never
// re-sorting and re-marshalling the symbol table.
//
// The transport below this layer batches whole envelopes into frames and
// piggybacks its cumulative acks on them; see internal/transport for that
// framing table.
const (
	wireVersion   = 1
	envelopeBytes = 2

	abRecordBytes, replyHeaderBytes = 40, 25 // the two fixed layouts (abRecord, replyHeader)

	// The data header, then the sections its flags byte selects: with the
	// envelope 39 bytes lead an ABCAST's payload and 65 a CBCAST's in a view of
	// three (the message-built wrapper they replace, PR 24, spent 180 and 213).
	dataHeaderBytes, dataRelayBytes = 37, 26
)

// The optional sections of a data packet, in the order they follow the header.
const (
	dataHasVT      = 1 << iota // vector timestamp: uint16 count, count × 8 bytes (a CBCAST)
	dataHasAttempt             // attempt, 8 bytes (an ABCAST a fence restarted)
	dataIsRelay                // relay stamp (view 8, rank 2, seq 8) and call id 8: a request to the relay site
	dataHasDests               // destination processes: uint16 count, count × 8 bytes (point-to-point)
)

// Packet types exchanged between daemons, carried in byte 1 of the wire
// envelope. Daemon-internal body fields use the "&" prefix so they can never
// collide with the application's fields or with the "@" system fields the
// toolkit sets.
const (
	_             = byte(iota + 1) // 1 was the message-built data packet; retired, never reused
	_                              // 2 was the message-built ABCAST proposal; retired, never reused
	_                              // 3 was the message-built ABCAST commit; retired, never reused
	ptGbRequest                    // request to the group coordinator (join/leave/fail/user gbcast/config)
	ptGbPrepare                    // GBCAST phase 1: wedge and report pending state
	ptGbAck                        // GBCAST phase 1 response
	ptGbCommit                     // GBCAST phase 2: install view / deliver payload
	ptGbDone                       // coordinator's response to the original requester
	ptLookup                       // symbolic name lookup request
	ptLookupResp                   // lookup response
	ptHeartbeat                    // failure-detector heartbeat (empty body)
	ptStateBlock                   // state transfer block for a joining member
	ptError                        // negative response to a call
	ptStateAck                     // joiner's site announces its state transfer completed
	_                              // 15 was the message-built re-solicitation; retired, never reused
	ptRelayAck                     // positive acknowledgement of a relayed multicast
	ptAbPropose                    // ABCAST phase 1 response: proposed priority (abRecord)
	ptAbCommit                     // ABCAST phase 2: final priority (abRecord)
	ptAbResolicit                  // receiver asks for a straggler ABCAST's commit record (abRecord)
	ptReply                        // a reply on its way to the caller's process (reply header + body)
	ptData                         // CBCAST data / ABCAST phase 1 / point-to-point / relay request (data header + payload)
)

// Field names used in daemon-to-daemon packet bodies.
const (
	fCall      = "&call"    // call id for request/response matching
	fGroup     = "&group"   // group address
	fViewID    = "&viewid"  // view id the packet refers to
	fSender    = "&sender"  // originating process
	fEntry     = "&entry"   // destination entry point
	fPayload   = "&payload" // nested application message
	fKind      = "&kind"    // gb request kind
	fProcs     = "&procs"   // processes affected by a gb request
	fName      = "&name"    // symbolic group name
	fView      = "&view"    // encoded view
	fGbID      = "&gbid"    // gbcast sequence number at the coordinator
	fPending   = "&pending" // encoded pending-state report (gbAck)
	fRebcast   = "&rebcast" // encoded rebroadcast set (gbCommit)
	fStateData = "&sdata"   // state transfer block payload
	fStateLast = "&slast"   // last state block flag
	fWantState = "&wantst"  // join wants a state transfer
	fErr       = "&err"     // error text
	fReqID     = "&reqid"   // stable GBCAST request id, survives coordinator fail-over
	fForce     = "&force"   // run the full wedge/flush even for a no-op change
	fXferID    = "&xferid"  // state-transfer attempt id (the view id the provider shipped under)
	fDead      = "&dead"    // prepare ack: removal targets this site confirms dead
	fStampView = "&sview"   // relay stamp: the view the stamped CBCAST was sent in
	fStampRank = "&srank"   // relay stamp: rank of the member that stamped it
	fStampSeq  = "&sseq"    // relay stamp: that member's own entry of the timestamp
	fPrimary   = "&primary" // lookup response: the answering site's copy is primary
	fFound     = "&found"   // lookup response: the answering site hosts the group
	fSite      = "&site"    // lookup response: the answering site's id
	fSealReq   = "&sealreq" // gbSeal: the request id whose outcome is being settled
	fOutcome   = "&outcome" // gbSeal result: 1 committed, 2 aborted
)

// GB request kinds carried in ptGbRequest packets.
const (
	gbJoin       = int64(iota + 1) // add a member
	gbLeave                        // remove a member voluntarily
	gbFail                         // remove failed members
	gbUser                         // user-level GBCAST delivery to an entry
	_                              // 5 was reserved and never sent; skipped so the kinds below keep their wire values
	gbNonPrimary                   // minority notice: wedge into read-only non-primary mode
	gbResume                       // total-wedge recovery: resume the last agreed view in place
	gbSeal                         // settle the outcome of an earlier request id (commit or abort it)
)

// The fixed layouts, big endian (ARCHITECTURE.md has them as tables). abRecord is
// the whole body of ptAbPropose, ptAbCommit and ptAbResolicit: group (bytes 0-7),
// message id (sender 8-15, sequence 16-23), priority (24-31), attempt (32-39, of
// the phase 1 a proposal answers). replyHeader leads ptReply's body, before the
// marshalled reply: caller (0-7), responder (8-15), session (16-23), kind (24).
type (
	abRecord struct {
		group   addr.Address
		id      core.MsgID
		prio    uint64
		attempt int64
	}
	replyHeader struct {
		caller, responder addr.Address
		session           int64
		kind              uint8
	}
)

// encode builds the wire bytes of the record as a packet of type pt.
func (r abRecord) encode(pt byte) []byte {
	raw := append(make([]byte, 0, envelopeBytes+abRecordBytes), wireVersion, pt)
	raw = binary.BigEndian.AppendUint64(r.id.Sender.AppendEncoded(r.group.AppendEncoded(raw)), r.id.Seq)
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(raw, r.prio), uint64(r.attempt))
}

// parseAbRecord reads a record from a packet body of exactly its length.
func parseAbRecord(b []byte) (r abRecord, ok bool) {
	if len(b) != abRecordBytes {
		return r, false
	}
	var gerr, serr error
	r.group, gerr = addr.Decode(b)
	r.id.Sender, serr = addr.Decode(b[8:])
	r.id.Seq, r.prio, r.attempt = binary.BigEndian.Uint64(b[16:]), binary.BigEndian.Uint64(b[24:]), int64(binary.BigEndian.Uint64(b[32:]))
	return r, gerr == nil && serr == nil
}

// encodeReply builds the wire bytes of a ptReply packet.
func encodeReply(h replyHeader, body *msg.Message) ([]byte, error) {
	raw := append(make([]byte, 0, envelopeBytes+replyHeaderBytes+body.MarshaledSize()), wireVersion, ptReply)
	raw = binary.BigEndian.AppendUint64(h.responder.AppendEncoded(h.caller.AppendEncoded(raw)), uint64(h.session))
	return body.AppendMarshal(append(raw, h.kind))
}

// parseReply reads a ptReply body: the header, and the reply decoded once.
func parseReply(b []byte) (h replyHeader, body *msg.Message, ok bool) {
	if len(b) < replyHeaderBytes {
		return h, nil, false
	}
	var cerr, rerr, berr error
	h.caller, cerr = addr.Decode(b)
	h.responder, rerr = addr.Decode(b[8:])
	h.session, h.kind = int64(binary.BigEndian.Uint64(b[16:])), b[24]
	body, berr = msg.UnmarshalOwned(b[replyHeaderBytes:], 4) // room for deliverReplyLocked's system fields
	return h, body, cerr == nil && rerr == nil && berr == nil
}

// encodeView stores a view in a nested message.
func encodeView(v core.View) *msg.Message {
	m := msg.New()
	m.PutAddress("g", v.Group)
	m.PutString("n", v.Name)
	m.PutInt("id", int64(v.ID))
	m.PutAddressList("m", v.Members)
	return m
}

// decodeView reads a view from a nested message.
func decodeView(m *msg.Message) core.View {
	if m == nil {
		return core.View{}
	}
	return core.View{
		Group:   m.GetAddress("g"),
		Name:    m.GetString("n", ""),
		ID:      core.ViewID(m.GetInt("id", 0)),
		Members: m.GetAddressList("m"),
	}
}

// dataPacket is a ptData packet — a CBCAST, phase 1 of an ABCAST, a
// point-to-point message, or a non-member's request to the relay site — as a
// value over the bytes it travels as. raw is the packet's record: what the send
// windows and a received frame already hold, what recent keeps and a flush
// report nests. payload is its one decode (at the sender, what was marshalled
// into raw) and belongs to whoever the packet is delivered to: nothing reads it
// after delivery. The id's sender is the sender the application sees.
type dataPacket struct {
	proto   Protocol
	entry   addr.EntryID
	group   addr.Address // nil: point-to-point, to dests
	view    core.ViewID
	id      core.MsgID
	rank    int        // in view, of the member that stamped the packet (-1: none, a relay request)
	attempt int64      // ABCAST protocol attempt (bumped by a fence restart)
	vt      vclock.VC  // CBCAST: the stamping member's timestamp
	after   relayStamp // relay request: the stamp of the sender's previous CBCAST
	call    int64      // relay request (non-zero): the call the relay site acknowledges
	dests   addr.List
	payload *msg.Message
	raw     []byte
	body    int // where the marshalled payload starts in raw
}

// encode writes the packet's bytes into one exactly sized buffer: the header
// and the sections the packet has (built in scratch, on the stack up to a view
// of ten, each setting its flag), then the payload — marshalled here, once, or,
// for a packet sent on under a new header (a relayed cast under the relay site's
// view, a fenced ABCAST's restart), the payload bytes it came with.
func (p *dataPacket) encode() (err error) {
	var scratch [128]byte
	be, h := binary.BigEndian, append(scratch[:0], wireVersion, ptData, 0, byte(p.proto), byte(p.entry))
	h = be.AppendUint64(p.group.AppendEncoded(be.AppendUint16(h, uint16(p.rank))), uint64(p.view))
	h = be.AppendUint64(p.id.Sender.AppendEncoded(h), p.id.Seq)
	if len(p.vt) > 0 {
		h[envelopeBytes] |= dataHasVT
		h = p.vt.AppendEncode(be.AppendUint16(h, uint16(len(p.vt))))
	}
	if p.attempt != 0 {
		h[envelopeBytes] |= dataHasAttempt
		h = be.AppendUint64(h, uint64(p.attempt))
	}
	if p.call != 0 {
		h[envelopeBytes] |= dataIsRelay
		h = be.AppendUint16(be.AppendUint64(h, uint64(p.after.view)), uint16(p.after.rank))
		h = be.AppendUint64(be.AppendUint64(h, p.after.seq), uint64(p.call))
	}
	if len(p.dests) > 0 {
		h[envelopeBytes] |= dataHasDests
		h = be.AppendUint16(h, uint16(len(p.dests)))
		for _, a := range p.dests {
			h = a.AppendEncoded(h)
		}
	}
	if p.raw != nil {
		p.raw = append(append(make([]byte, 0, len(h)+len(p.raw)-p.body), h...), p.raw[p.body:]...)
	} else {
		p.raw, err = p.payload.AppendMarshal(append(make([]byte, 0, len(h)+p.payload.MarshaledSize()), h...))
	}
	p.body = len(h)
	return err
}

// parseHeader reads the fixed part of a ptData body into p and returns the
// flags and what follows the header. It allocates nothing.
func (p *dataPacket) parseHeader(b []byte) (flags byte, rest []byte, ok bool) {
	if len(b) < dataHeaderBytes || b[0] >= dataHasDests<<1 { // short, or a flags bit no section defines
		return 0, nil, false
	}
	var gerr, serr error
	p.proto, p.entry, p.rank = Protocol(b[1]), addr.EntryID(b[2]), int(int16(binary.BigEndian.Uint16(b[3:])))
	p.group, gerr = addr.Decode(b[5:])
	p.id.Sender, serr = addr.Decode(b[21:])
	p.view, p.id.Seq = core.ViewID(binary.BigEndian.Uint64(b[13:])), binary.BigEndian.Uint64(b[29:])
	return b[0], b[dataHeaderBytes:], gerr == nil && serr == nil
}

// cut splits the first n bytes off b, and cutList a uint16 count and as many
// 8-byte entries (returning the entries); ok is false when b is too short.
func cut(b []byte, n int) (s, rest []byte, ok bool) {
	if len(b) < n {
		return nil, nil, false
	}
	return b[:n], b[n:], true
}

func cutList(b []byte) (list, rest []byte, ok bool) {
	if len(b) < 2 {
		return nil, nil, false
	}
	return cut(b[2:], 8*int(binary.BigEndian.Uint16(b)))
}

// parseDataPacket reads a whole ptData packet, which it keeps (a frame the
// receiver owns, or a packet nested in a flush report): each section within
// exact bounds, the payload decoded in place with room for the four system
// fields its delivery adds.
func parseDataPacket(raw []byte) (*dataPacket, bool) {
	if len(raw) < envelopeBytes || raw[0] != wireVersion || raw[1] != ptData {
		return nil, false
	}
	p, be := &dataPacket{raw: raw}, binary.BigEndian
	flags, b, ok := p.parseHeader(raw[envelopeBytes:])
	var s []byte
	if ok && flags&dataHasVT != 0 {
		if s, b, ok = cutList(b); ok {
			p.vt, _ = vclock.Decode(s)
		}
	}
	if ok && flags&dataHasAttempt != 0 {
		if s, b, ok = cut(b, 8); ok {
			p.attempt = int64(be.Uint64(s))
		}
	}
	if ok && flags&dataIsRelay != 0 {
		if s, b, ok = cut(b, dataRelayBytes); ok {
			p.after = relayStamp{view: core.ViewID(be.Uint64(s)), rank: int(int16(be.Uint16(s[8:]))), seq: be.Uint64(s[10:])}
			p.call = int64(be.Uint64(s[18:]))
		}
	}
	if ok && flags&dataHasDests != 0 {
		for s, b, ok = cutList(b); ok && len(s) > 0; s = s[addr.EncodedSize:] {
			a, err := addr.Decode(s)
			p.dests, ok = append(p.dests, a), err == nil
		}
	}
	if !ok {
		return nil, false
	}
	var err error
	p.body = len(raw) - len(b)
	p.payload, err = msg.UnmarshalOwned(b, 4)
	return p, err == nil
}

// relayStamp places a relayed CBCAST in its group's causal order: the view it
// was sent in, the rank of the member that stamped it, and that member's own
// entry of the timestamp. The relay's acknowledgement carries it, and the
// sender's next relay request names it as the cast to come after. The zero
// stamp names nothing and is left off the wire.
type relayStamp struct {
	view core.ViewID
	rank int
	seq  uint64
}

func putStamp(p *msg.Message, s relayStamp) {
	if s.view == 0 {
		return
	}
	p.PutInt(fStampView, int64(s.view))
	p.PutInt(fStampRank, int64(s.rank))
	p.PutInt(fStampSeq, int64(s.seq))
}

func getStamp(p *msg.Message) relayStamp {
	return relayStamp{
		view: core.ViewID(p.GetInt(fStampView, 0)),
		rank: int(p.GetInt(fStampRank, 0)),
		seq:  uint64(p.GetInt(fStampSeq, 0)),
	}
}

// pendingReport is one member-site's contribution to a GBCAST flush: the
// ABCASTs it has received but not delivered (with commit status and, when the
// site initiated them, the priorities collected so far) and the identifiers
// of recent deliveries so the coordinator can rebroadcast messages some
// members missed. On the commit, the same structure carries the
// reconciliation instructions back: committed entries to force everywhere,
// uncommitted entries to discard, recent messages to re-disseminate, and the
// ids of ABCASTs fenced behind the new view (their initiators restart them).
type pendingReport struct {
	Abcasts []abPendingWire
	Recent  []recentWire
	Fenced  []core.MsgID
}

type abPendingWire struct {
	ID        core.MsgID
	Committed bool
	Priority  uint64
	Packet    []byte // the encoded ptData packet, so it can be re-disseminated
	Init      bool   // the reporting site holds the initiator round (pendingAb)
}

// recentWire is one recently delivered message in a flush report. For an
// ABCAST the reporting site also ships the final priority it delivered at
// (from its bounded commit record), so the coordinator can complete the
// message — at the exact final the protocol already used — at sites where it
// is still an uncommitted pending entry; Priority 0 means unknown (a CBCAST,
// or a record already evicted).
type recentWire struct {
	ID       core.MsgID
	Packet   []byte // the encoded ptData packet
	Priority uint64
}

// encodePendingReport flattens a report into a nested message, each list as
// its length ("nab") and numbered entries ("ab0", ...); a packet goes in as the
// bytes it travelled as, and comes out as a view of the report's frame.
func encodePendingReport(r pendingReport) *msg.Message {
	m := msg.New()
	entry := func(list string, i int, id core.MsgID, pkt []byte) *msg.Message {
		e := msg.New().PutAddress("&msgid", id.Sender).PutInt("&msgseq", int64(id.Seq))
		if pkt != nil {
			e.PutBytes("pkt", pkt)
		}
		m.PutMessage(fmt.Sprintf("%s%d", list, i), e)
		return e
	}
	m.PutInt("nab", int64(len(r.Abcasts)))
	for i, a := range r.Abcasts {
		e := entry("ab", i, a.ID, a.Packet).PutInt("p", int64(a.Priority)).PutInt("c", 0)
		if a.Committed {
			e.PutInt("c", 1)
		}
		if a.Init {
			e.PutInt("i", 1)
		}
	}
	m.PutInt("nrc", int64(len(r.Recent)))
	for i, rc := range r.Recent {
		if e := entry("rc", i, rc.ID, rc.Packet); rc.Priority != 0 {
			e.PutInt("p", int64(rc.Priority))
		}
	}
	m.PutInt("nfc", int64(len(r.Fenced)))
	for i, id := range r.Fenced {
		entry("fc", i, id, nil)
	}
	return m
}

// decodePendingReport reverses encodePendingReport.
func decodePendingReport(m *msg.Message) (r pendingReport) {
	each := func(list string, add func(e *msg.Message, id core.MsgID)) {
		for i, n := 0, int(m.GetInt("n"+list, 0)); i < n; i++ {
			if e := m.GetMessage(fmt.Sprintf("%s%d", list, i)); e != nil {
				add(e, core.MsgID{Sender: e.GetAddress("&msgid"), Seq: uint64(e.GetInt("&msgseq", 0))})
			}
		}
	}
	if m == nil {
		return r
	}
	each("ab", func(e *msg.Message, id core.MsgID) {
		r.Abcasts = append(r.Abcasts, abPendingWire{ID: id, Committed: e.GetInt("c", 0) == 1,
			Priority: uint64(e.GetInt("p", 0)), Packet: e.BytesView("pkt"), Init: e.GetInt("i", 0) == 1})
	})
	each("rc", func(e *msg.Message, id core.MsgID) {
		r.Recent = append(r.Recent, recentWire{ID: id, Packet: e.BytesView("pkt"), Priority: uint64(e.GetInt("p", 0))})
	})
	each("fc", func(_ *msg.Message, id core.MsgID) { r.Fenced = append(r.Fenced, id) })
	return r
}
