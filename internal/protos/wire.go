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
// fixed-offset header followed by the fixed layout of its type:
//
//	byte 0   wireVersion
//	byte 1   packet type (one of the pt* constants below)
//	bytes 2+ the type's layout, big endian
//
// Keeping the packet type at a fixed offset lets handleTransport dispatch
// without decoding the body, and lets a multicast fan-out share one encoded
// packet across every destination site. Liveness is not a packet: any
// transport frame from a site is a heartbeat.
// A message (msg.Message) travels only as an application's payload: a data
// packet's, a reply's, a user GBCAST's.
//
// The transport below this layer batches whole envelopes into frames and
// piggybacks its cumulative acks on them; see internal/transport for that
// framing table.
const (
	wireVersion   = 1
	envelopeBytes = 2

	// The fixed heads; ARCHITECTURE.md has each byte by byte.
	replyHeaderBytes, gbHeadBytes, lookupHeadBytes, stateHeaderBytes = 25, 35, 11, 25

	// The data header, then the sections its flags byte selects: with the
	// envelope 65 bytes lead the payload of a CBCAST or a stamped ABCAST in a
	// view of three (the message-built wrapper they replace spent 213).
	dataHeaderBytes, dataRelayBytes = 37, 26
)

// The optional sections of a data packet, in the order they follow the header.
const (
	dataHasVT    = 1 << iota // vector timestamp: uint16 count, count × 8 bytes (a CBCAST, an ABCAST)
	_                        // 2: the holder's number for an ABCAST under type 33; a packet setting it is malformed
	dataIsRelay              // relay stamp (view 8, rank 2, seq 8) and call id 8: a request to the relay site
	dataHasDests             // destination processes: uint16 count, count × 8 bytes (point-to-point)
)

// Packet types exchanged between daemons, carried in byte 1 of the wire
// envelope. A retired number belonged to a packet whose layout has changed
// since; it is never reused, and the type that replaced it is appended.
const (
	_            = byte(iota + 1) // 1: data packet, now ptData
	_                             // 2: ABCAST proposal, then 17
	_                             // 3: ABCAST commit, then 18
	_                             // 4: GBCAST request, now ptGbRequest
	_                             // 5: GBCAST prepare, now ptGbPrepare
	_                             // 6: GBCAST ack, now ptGbAck
	_                             // 7: GBCAST commit, now ptGbCommit
	_                             // 8: GBCAST done, now ptGbDone
	_                             // 9: lookup, now ptLookup
	_                             // 10: lookup response, now ptLookupResp
	_                             // 11: heartbeat, now any transport frame (internal/fdetect)
	_                             // 12: state block, now ptStateBlock
	_                             // 13: error, now ptError
	_                             // 14: state ack, then 30
	_                             // 15: re-solicitation, then 19
	_                             // 16: relay ack, now ptRelayAck
	_                             // 17: ABCAST proposal, gone with the two-phase ABCAST
	_                             // 18: ABCAST commit, gone with the two-phase ABCAST
	_                             // 19: ABCAST re-solicitation, gone with the two-phase ABCAST
	ptReply                       // a reply on its way to the caller's process (reply header + body)
	_                             // 21: data packet whose flag 2 was a fenced ABCAST's attempt, now ptData
	_                             // 22: request whose head carried a GBCAST sequence and view id, now ptGbRequest
	_                             // 23: done of that head, now ptGbDone
	_                             // 24: prepare of that head, now ptGbPrepare
	_                             // 25: prepare ack whose report entries carried an ABCAST number, then 35
	_                             // 26: commit whose report entries carried an ABCAST number, then 36
	ptLookup                      // group lookup by name or id (lookupPacket)
	ptLookupResp                  // a site's answer to a lookup (lookupPacket)
	ptStateBlock                  // state transfer block: stateHeader, then the block to the end
	_                             // 30: a joiner's state transfer completed, gone: the flush asks for a pending one
	ptError                       // negative answer to a call: call id 8, then the error text
	ptRelayAck                    // positive answer to a relay request: relay stamp and call id
	_                             // 33: data packet whose flag 2 was the holder's ABCAST number, now ptData
	ptData                        // CBCAST / ABCAST, stamped or submitted / point-to-point / relay request (dataPacket)
	_                             // 35: prepare ack of the 51-byte head, now ptGbAck
	_                             // 36: commit of the 51-byte head, now ptGbCommit
	ptGbRequest                   // request to the group coordinator: join/leave/fail/user gbcast/seal (gbPacket)
	ptGbDone                      // the coordinator's answer to a request (gbPacket)
	ptGbPrepare                   // GBCAST phase 1: wedge and report pending state (gbPacket)
	ptGbAck                       // a member site's answer to a prepare (gbPacket)
	ptGbCommit                    // GBCAST phase 2, or a gbNonPrimary / gbResume notice (gbPacket)
)

// GB request kinds carried in the GBCAST family's kind byte.
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

// replyHeader leads ptReply's body, before the marshalled reply, big endian
// (ARCHITECTURE.md has every layout as a table): caller (0-7), responder
// (8-15), session (16-23), kind (24).
type replyHeader struct {
	caller, responder addr.Address
	session           int64
	kind              uint8
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

// dataPacket is a ptData packet — a CBCAST, an ABCAST (stamped by its view's
// holder at rank 0, or submitted to it), a point-to-point message, or a
// non-member's request to the relay site — as a value over the bytes it
// travels as. raw is the packet's record: what the send windows and a received
// frame already hold, what recent keeps and a flush report nests. payload is
// its one decode (at the sender, what was marshalled into raw) and belongs to
// whoever the packet is delivered to: nothing reads it after delivery. The
// id's sender is the sender the application sees. vt lives in vtBuf in a view
// of up to three, every benchmark workload's, so stamping or decoding it
// allocates nothing; the struct is then 192 bytes, an allocation size class.
type dataPacket struct {
	proto   Protocol
	entry   addr.EntryID
	rank    int16        // in view, of the member that stamped the packet (-1: none, a submission or a relay request)
	group   addr.Address // nil: point-to-point, to dests
	view    core.ViewID
	id      core.MsgID
	vt      vclock.VC // the stamping member's timestamp; a submission's: its copy's clock as released
	vtBuf   [3]uint64
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
// view, a submission the holder stamps), the payload bytes it came with.
func (p *dataPacket) encode() (err error) {
	var scratch [128]byte
	be, h := binary.BigEndian, append(scratch[:0], wireVersion, ptData, 0, byte(p.proto), byte(p.entry))
	h = be.AppendUint64(p.group.AppendEncoded(be.AppendUint16(h, uint16(p.rank))), uint64(p.view))
	h = be.AppendUint64(p.id.Sender.AppendEncoded(h), p.id.Seq)
	if len(p.vt) > 0 {
		h[envelopeBytes] |= dataHasVT
		h = p.vt.AppendEncode(be.AppendUint16(h, uint16(len(p.vt))))
	}
	if p.call != 0 {
		h[envelopeBytes] |= dataIsRelay
		h = appendRelay(h, p.after, p.call)
	}
	if len(p.dests) > 0 {
		h[envelopeBytes] |= dataHasDests
		h = appendAddrs(h, p.dests)
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
	if len(b) < dataHeaderBytes || b[0]&^(dataHasVT|dataIsRelay|dataHasDests) != 0 { // short, or a flags bit no section defines
		return 0, nil, false
	}
	var gerr, serr error
	p.proto, p.entry, p.rank = Protocol(b[1]), addr.EntryID(b[2]), int16(binary.BigEndian.Uint16(b[3:]))
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

// appendAddrs writes an address list as a uint16 count and 8 bytes each;
// readAddrs reads one back into a list of its own (nil when empty).
func appendAddrs(b []byte, l addr.List) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(l)))
	for _, a := range l {
		b = a.AppendEncoded(b)
	}
	return b
}

func readAddrs(b []byte) (l addr.List, rest []byte, ok bool) {
	s, rest, ok := cutList(b)
	if ok && len(s) > 0 {
		l = make(addr.List, 0, len(s)/addr.EncodedSize)
	}
	for ; ok && len(s) > 0; s = s[addr.EncodedSize:] {
		a, err := addr.Decode(s)
		l, ok = append(l, a), err == nil
	}
	return l, rest, ok
}

// parseDataPacket reads a whole ptData packet, which it keeps (a frame the
// receiver owns, or a packet nested in a flush report): each section within
// exact bounds, the payload decoded in place with room for the four system
// fields its delivery adds.
func parseDataPacket(raw []byte) (*dataPacket, bool) {
	if len(raw) < envelopeBytes || raw[0] != wireVersion || raw[1] != ptData {
		return nil, false
	}
	p := &dataPacket{raw: raw}
	flags, b, ok := p.parseHeader(raw[envelopeBytes:])
	var s []byte
	if ok && flags&dataHasVT != 0 {
		if s, b, ok = cutList(b); ok {
			p.vt, _ = vclock.DecodeInto(p.vtBuf[:0], s)
		}
	}
	if ok && flags&dataIsRelay != 0 {
		if s, b, ok = cut(b, dataRelayBytes); ok {
			p.after, p.call = readRelay(s)
		}
	}
	if ok && flags&dataHasDests != 0 {
		p.dests, b, ok = readAddrs(b)
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
// stamp names nothing.
type relayStamp struct {
	view core.ViewID
	rank int
	seq  uint64
}

// appendRelay writes a relay stamp and the call it goes with (view 8, rank 2,
// seq 8, call 8): a relay request's section, and the whole of its ptRelayAck.
func appendRelay(b []byte, s relayStamp, call int64) []byte {
	be := binary.BigEndian
	b = be.AppendUint16(be.AppendUint64(b, uint64(s.view)), uint16(s.rank))
	return be.AppendUint64(be.AppendUint64(b, s.seq), uint64(call))
}

// readRelay reads what appendRelay wrote, from dataRelayBytes bytes.
func readRelay(s []byte) (relayStamp, int64) {
	be := binary.BigEndian
	return relayStamp{view: core.ViewID(be.Uint64(s)), rank: int(int16(be.Uint16(s[8:]))), seq: be.Uint64(s[10:])}, int64(be.Uint64(s[18:]))
}

// pendingReport is one member site's contribution to a GBCAST flush, its
// recent deliveries, so the coordinator can re-disseminate what some members
// missed; on the commit, the same list carries back what to re-disseminate.
// Nothing undelivered is reported: a submission the holder has not stamped
// stays with its submitter.
type pendingReport []recentWire

// recentWire is one recently delivered message in a flush report: its id and
// the data packet as it travelled, whose timestamp orders it again.
type recentWire struct {
	ID     core.MsgID
	Packet []byte
}

// A report travels as a uint16 count of entries, each the message id (sender
// 8, sequence 8), a flags byte that is always 4 (the tag of the recent list in
// the reports that also listed undelivered and fenced ABCASTs; any other value
// is malformed) and a uint32 length, followed by that many bytes of the nested
// packet as it travelled.
const reportEntryBytes, reportRecent = 21, 1 << 2

// size is the report's length on the wire.
func (r pendingReport) size() int {
	n := 2 + len(r)*reportEntryBytes
	for _, rc := range r {
		n += len(rc.Packet)
	}
	return n
}

func (r pendingReport) appendTo(b []byte) []byte {
	be := binary.BigEndian
	b = be.AppendUint16(b, uint16(len(r)))
	for _, rc := range r {
		b = append(be.AppendUint64(rc.ID.Sender.AppendEncoded(b), rc.ID.Seq), reportRecent)
		b = append(be.AppendUint32(b, uint32(len(rc.Packet))), rc.Packet...)
	}
	return b
}

// readReport reads a report back; its packets are views of b.
func readReport(b []byte) (r pendingReport, rest []byte, ok bool) {
	be := binary.BigEndian
	n, b, ok := cut(b, 2)
	for i := 0; ok && i < int(be.Uint16(n)); i++ {
		var e, pkt []byte
		if e, b, ok = cut(b, reportEntryBytes); !ok {
			break
		}
		pkt, b, ok = cut(b, int(be.Uint32(e[17:])))
		rc := recentWire{ID: core.MsgID{Seq: be.Uint64(e[8:])}, Packet: pkt}
		var err error
		if rc.ID.Sender, err = addr.Decode(e); !ok || err != nil || e[16] != reportRecent {
			return r, nil, false
		}
		r = append(r, rc)
	}
	return r, b, ok
}

// appendView writes a view: group 8, id 8, name (uint16 length, the bytes),
// members (appendAddrs). viewBytes is its length, readView reads it back.
func appendView(b []byte, v core.View) []byte {
	b = binary.BigEndian.AppendUint64(v.Group.AppendEncoded(b), uint64(v.ID))
	return appendAddrs(append(binary.BigEndian.AppendUint16(b, uint16(len(v.Name))), v.Name...), v.Members)
}

func viewBytes(v core.View) int { return 20 + len(v.Name) + addr.EncodedSize*len(v.Members) }

func readView(b []byte) (v core.View, rest []byte, ok bool) {
	if len(b) < 18 {
		return v, nil, false
	}
	var err error
	v.Group, err = addr.Decode(b)
	v.ID = core.ViewID(binary.BigEndian.Uint64(b[8:]))
	name, rest, ok := cut(b[18:], int(binary.BigEndian.Uint16(b[16:])))
	if ok {
		v.Name = string(name)
		v.Members, rest, ok = readAddrs(rest)
	}
	return v, rest, ok && err == nil
}

// gbPacket is every packet of the GBCAST family: a request and its done, a
// prepare and its ack, a commit (or a gbNonPrimary or gbResume notice). What a
// type does not use stays zero, and a section off the wire. Its head: call id
// 0-7, group 8-15, kind 16, request id 17-24, seal target 25-32, outcome 33,
// flags 34; then the flagged sections. The fields are in the order that keeps
// the struct at 240 bytes, an allocation size class.
type gbPacket struct {
	call       int64        // request, prepare: the call the done or ack answers
	group      addr.Address // the group (none on a done or an ack)
	sender     addr.Address // user GBCAST: who cast it
	kind       int64        // gbJoin ... gbSeal
	reqID      int64        // stable request id; survives coordinator fail-over
	sealTarget int64        // gbSeal: the request id whose outcome is being settled
	outcome    int64        // ack: the site's vote on sealTarget; commit and done of a seal: the verdict
	wantState  bool         // a join wants a state transfer
	force      bool         // run the full wedge/flush even if the change is a no-op
	entry      addr.EntryID
	procs      addr.List // the processes a change names; a prepare's removal targets
	view       core.View // commit: the new view; ack: the site's; done: the request's
	report     pendingReport
	dead       addr.List    // ack: removal targets the site confirms dead
	xfers      addr.List    // ack: the site's members awaiting state; commit: the joiners a new oldest member ships to
	payload    *msg.Message // user GBCAST: delivered at entry, from sender
}

// The flags byte of a gbPacket: two request flags, then the sections present.
// They follow the head in the order procs, view, report, dead, xfers, payload.
const (
	gbWantState  = 1 << iota // a join wants a state transfer
	gbForce                  // run the full wedge/flush even for a no-op change
	gbHasProcs               // procs (appendAddrs)
	gbHasView                // view (appendView)
	gbHasReport              // report (appendTo)
	gbHasDead                // dead (appendAddrs)
	gbHasPayload             // entry 1, sender 8, then the marshalled payload to the end
	gbHasXfers               // xfers (appendAddrs), before the payload
)

// encode builds the packet of type pt in one buffer. Only a payload can fail.
func (p *gbPacket) encode(pt byte) ([]byte, error) {
	flags := bit(p.wantState)*gbWantState | bit(p.force)*gbForce | bit(len(p.procs) > 0)*gbHasProcs |
		bit(!p.view.Group.IsNil())*gbHasView | bit(len(p.report) > 0)*gbHasReport |
		bit(len(p.dead) > 0)*gbHasDead | bit(p.payload != nil)*gbHasPayload | bit(len(p.xfers) > 0)*gbHasXfers
	// Room for every section, present or not: a few bytes too many, one allocation.
	size := envelopeBytes + gbHeadBytes + 15 + addr.EncodedSize*(len(p.procs)+len(p.dead)+len(p.xfers)) + viewBytes(p.view) + p.report.size()
	if p.payload != nil {
		size += p.payload.MarshaledSize()
	}
	be := binary.BigEndian
	b := be.AppendUint64(append(make([]byte, 0, size), wireVersion, pt), uint64(p.call))
	b = be.AppendUint64(be.AppendUint64(append(p.group.AppendEncoded(b), byte(p.kind)), uint64(p.reqID)), uint64(p.sealTarget))
	b = append(b, byte(p.outcome), flags)
	if flags&gbHasProcs != 0 {
		b = appendAddrs(b, p.procs)
	}
	if flags&gbHasView != 0 {
		b = appendView(b, p.view)
	}
	if flags&gbHasReport != 0 {
		b = p.report.appendTo(b)
	}
	if flags&gbHasDead != 0 {
		b = appendAddrs(b, p.dead)
	}
	if flags&gbHasXfers != 0 {
		b = appendAddrs(b, p.xfers)
	}
	if flags&gbHasPayload == 0 {
		return b, nil
	}
	return p.payload.AppendMarshal(p.sender.AppendEncoded(append(b, byte(p.entry))))
}

// parse reads a body into p (a zero value), each section within exact bounds
// and the payload decoded in place. The report's packets are views of b.
func (p *gbPacket) parse(b []byte) bool {
	if len(b) < gbHeadBytes || b[16] > byte(gbSeal) {
		return false
	}
	be, flags := binary.BigEndian, b[34]
	var err error
	p.call, p.kind, p.reqID, p.sealTarget = int64(be.Uint64(b)), int64(b[16]), int64(be.Uint64(b[17:])), int64(be.Uint64(b[25:]))
	p.group, err = addr.Decode(b[8:])
	p.outcome, p.wantState, p.force = int64(b[33]), flags&gbWantState != 0, flags&gbForce != 0
	ok, b := err == nil, b[gbHeadBytes:]
	if ok && flags&gbHasProcs != 0 {
		p.procs, b, ok = readAddrs(b)
	}
	if ok && flags&gbHasView != 0 {
		p.view, b, ok = readView(b)
	}
	if ok && flags&gbHasReport != 0 {
		p.report, b, ok = readReport(b)
	}
	if ok && flags&gbHasDead != 0 {
		p.dead, b, ok = readAddrs(b)
	}
	if ok && flags&gbHasXfers != 0 {
		p.xfers, b, ok = readAddrs(b)
	}
	if !ok || flags&gbHasPayload == 0 || len(b) < 9 {
		return ok && len(b) == 0 && flags&gbHasPayload == 0
	}
	p.entry = addr.EntryID(b[0])
	if p.sender, err = addr.Decode(b[1:]); err == nil {
		p.payload, err = msg.UnmarshalOwned(b[9:], 0)
	}
	return err == nil
}

// lookupPacket is both a lookup (ptLookup: by its view's group or name, or
// both) and a site's answer (ptLookupResp: the answering site, whether its copy
// is primary, and the view it holds, the zero view for none). Layout: call id
// 0-7, site 8-9, primary 10, then the view.
type lookupPacket struct {
	call    int64
	site    addr.SiteID
	primary bool
	view    core.View
}

func (l lookupPacket) encode(pt byte) []byte {
	b := append(make([]byte, 0, envelopeBytes+lookupHeadBytes+viewBytes(l.view)), wireVersion, pt)
	b = binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint64(b, uint64(l.call)), uint16(l.site))
	return appendView(append(b, bit(l.primary)), l.view)
}

func parseLookup(b []byte) (l lookupPacket, ok bool) {
	if len(b) < lookupHeadBytes || b[10] > 1 {
		return l, false
	}
	l.call, l.site, l.primary = int64(binary.BigEndian.Uint64(b)), addr.SiteID(binary.BigEndian.Uint16(b[8:])), b[10] == 1
	l.view, b, ok = readView(b[lookupHeadBytes:])
	return l, ok && len(b) == 0
}

// stateHeader leads a state block (ptStateBlock; the block follows to the end):
// group 0-7, joiner 8-15, transfer id 16-23, last 24.
type stateHeader struct {
	group, joiner addr.Address
	xferID        uint64 // the view id the provider shipped under
	last          bool
}

// encode builds the packet, writing the block into it: the one copy the
// provider's bytes take on their way to the wire.
func (h stateHeader) encode(block []byte) []byte {
	b := append(make([]byte, 0, envelopeBytes+stateHeaderBytes+len(block)), wireVersion, ptStateBlock)
	b = binary.BigEndian.AppendUint64(h.joiner.AppendEncoded(h.group.AppendEncoded(b)), h.xferID)
	return append(append(b, bit(h.last)), block...)
}

// parseState reads a state header and returns the block after it as a capped
// sub-slice of b: the receiver's to keep and write, nothing grows into what
// follows it in the frame.
func parseState(b []byte) (h stateHeader, block []byte, ok bool) {
	if len(b) < stateHeaderBytes || b[24] > 1 {
		return h, nil, false
	}
	var gerr, jerr error
	h.group, gerr = addr.Decode(b)
	h.joiner, jerr = addr.Decode(b[8:])
	h.xferID, h.last = binary.BigEndian.Uint64(b[16:]), b[24] == 1
	return h, b[stateHeaderBytes:len(b):len(b)], gerr == nil && jerr == nil
}

// encode builds the packet of type pt an answer to call travels as: an error is
// the call id and its text, a relay's acknowledgement the relay section.
func (a answer) encode(pt byte, call int64) []byte {
	switch pt {
	case ptError:
		return append(binary.BigEndian.AppendUint64([]byte{wireVersion, ptError}, uint64(call)), a.err.Error()...)
	case ptRelayAck:
		return appendRelay([]byte{wireVersion, ptRelayAck}, a.stamp, call)
	case ptLookupResp:
		a.look.call = call
		return a.look.encode(pt)
	}
	a.gb.call = call // ptGbDone, ptGbAck: no payload, nothing can fail
	raw, _ := a.gb.encode(pt)
	return raw
}

// parseAnswer reads an answer packet's body into the answer and the call it
// answers. An error is restored to the sentinel its text names, so a caller
// can match it with errors.Is across the wire (a Join refused by a minority
// coordinator must surface as ErrNonPrimary, not as opaque text).
func parseAnswer(pt byte, b []byte) (call int64, a answer, ok bool) {
	switch pt {
	case ptGbDone:
		a.gb = new(gbPacket)
		ok = a.gb.parse(b)
		return a.gb.call, a, ok
	case ptLookupResp:
		l, ok := parseLookup(b)
		return l.call, answer{look: &l}, ok
	case ptRelayAck:
		if len(b) != dataRelayBytes {
			return 0, a, false
		}
		a.stamp, call = readRelay(b)
		return call, a, true
	}
	if len(b) < 8 {
		return 0, a, false
	}
	text := string(b[8:])
	a.err = fmt.Errorf("protos: remote error: %s", text)
	for _, sentinel := range []error{ErrNonPrimary, ErrUnknownGroup, ErrNotMember, ErrUnknownProc, ErrDeadProcess, ErrClosed, errRelayEarly, errNotCoordinator} {
		if text == sentinel.Error() {
			a.err = sentinel
		}
	}
	return int64(binary.BigEndian.Uint64(b)), a, true
}

// bit is 1 for true.
func bit(on bool) byte {
	if on {
		return 1
	}
	return 0
}
