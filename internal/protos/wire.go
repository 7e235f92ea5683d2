package protos

import (
	"encoding/binary"
	"fmt"
	"math/bits"

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

// Daemon wire envelope. Every daemon-to-daemon packet begins with a two-byte
// envelope followed by the fields of its type in a fixed order:
//
//	byte 0   wireVersion
//	byte 1   packet type (one of the pt* constants below)
//	bytes 2+ the type's fields
//
// One encoding rule holds for every field: an integer is a minimal uvarint,
// or a zigzag varint where it can be negative (a rank), and a length or a
// count is a uvarint. An address keeps its 8 bytes, and a GBCAST request id
// 8 bytes big endian: it packs a site and an incarnation into its high 32
// bits. Flags, kinds and other enumerations are one byte each.
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
)

// The optional sections of a data packet, in the order they follow the header.
const (
	dataHasVT    = 1 << iota // vector timestamp: count, then each entry (vclock's AppendEncode; a CBCAST, an ABCAST)
	_                        // 2: the holder's number for an ABCAST under type 33; a packet setting it is malformed
	dataIsRelay              // relay stamp (view, rank, seq) and call id: a request to the relay site
	dataHasDests             // destination processes: count, count × 8 bytes (point-to-point)
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
	_                             // 20: reply of the fixed-width layout, now ptReply
	_                             // 21: data packet whose flag 2 was a fenced ABCAST's attempt, now ptData
	_                             // 22: request whose head carried a GBCAST sequence and view id, now ptGbRequest
	_                             // 23: done of that head, now ptGbDone
	_                             // 24: prepare of that head, now ptGbPrepare
	_                             // 25: prepare ack whose report entries carried an ABCAST number, then 35
	_                             // 26: commit whose report entries carried an ABCAST number, then 36
	_                             // 27: lookup of the fixed-width layout, now ptLookup
	_                             // 28: lookup response of the fixed-width layout, now ptLookupResp
	_                             // 29: state block of the fixed-width layout, now ptStateBlock
	_                             // 30: a joiner's state transfer completed, gone: the flush asks for a pending one
	_                             // 31: error of the fixed-width layout, now ptError
	_                             // 32: relay ack of the fixed-width layout, now ptRelayAck
	_                             // 33: data packet whose flag 2 was the holder's ABCAST number, now ptData
	_                             // 34: data packet of the fixed-width layout, now ptData
	_                             // 35: prepare ack of the 51-byte head, now ptGbAck
	_                             // 36: commit of the 51-byte head, now ptGbCommit
	_                             // 37: GBCAST request of the fixed-width layout, now ptGbRequest
	_                             // 38: GBCAST done of the fixed-width layout, now ptGbDone
	_                             // 39: GBCAST prepare of the fixed-width layout, now ptGbPrepare
	_                             // 40: GBCAST ack of the fixed-width layout, now ptGbAck
	_                             // 41: GBCAST commit of the fixed-width layout, now ptGbCommit
	ptReply                       // a reply on its way to the caller's process (reply header + body)
	ptLookup                      // group lookup by name or id (lookupPacket)
	ptLookupResp                  // a site's answer to a lookup (lookupPacket)
	ptStateBlock                  // state transfer block: stateHeader, then the block to the end
	ptError                       // negative answer to a call: call id, then the error text
	ptRelayAck                    // positive answer to a relay request: relay stamp and call id
	ptData                        // CBCAST / ABCAST, stamped or submitted / point-to-point / relay request (dataPacket)
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

// replyHeader leads ptReply's body, before the marshalled reply
// (ARCHITECTURE.md has every layout as a table): caller 8, responder 8,
// session, kind.
type replyHeader struct {
	caller, responder addr.Address
	session           int64
	kind              uint8
}

// encodeReply builds the wire bytes of a ptReply packet: body, stripped.
func encodeReply(h replyHeader, body *msg.Message) ([]byte, error) {
	raw := append(make([]byte, 0, envelopeBytes+2*addr.EncodedSize+uvarintLen(uint64(h.session))+1+body.MarshaledSizeStripped()), wireVersion, ptReply)
	raw = binary.AppendUvarint(h.responder.AppendEncoded(h.caller.AppendEncoded(raw)), uint64(h.session))
	return body.AppendMarshalStripped(append(raw, h.kind))
}

// parseReplyHeader reads a ptReply body's header, and returns the reply's bytes.
func parseReplyHeader(b []byte) (h replyHeader, reply []byte, ok bool) {
	r := reader{b: b}
	h.caller, h.responder, h.session, h.kind = r.addr(), r.addr(), int64(r.uvarint()), r.byte()
	return h, r.b, !r.bad
}

// reader reads a packet's fields in their order. The first field that is
// short or malformed sets bad and empties b, so every later read fails too
// and a parser checks bad once, at its end. Only a failed read allocates.
type reader struct {
	b   []byte
	bad bool
}

func (r *reader) fail() { r.b, r.bad = nil, true }

// bytes reads the next n bytes, a view of the packet (zeros, up to 8, past its end).
func (r *reader) bytes(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail()
		return make([]byte, min(n, 8))
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 { // cut short, or longer than 64 bits
		r.fail()
	}
	r.b = r.b[max(n, 0):]
	return v
}

func (r *reader) varint() int64 { u := r.uvarint(); return int64(u>>1) ^ -int64(u&1) } // zigzag

func (r *reader) byte() byte { return r.bytes(1)[0] }

// flag reads a byte that must be 0 or 1.
func (r *reader) flag() bool {
	v := r.byte()
	if v > 1 {
		r.fail()
	}
	return v == 1
}

// fixed64 reads 8 bytes big endian: a GBCAST request id.
func (r *reader) fixed64() uint64 { return binary.BigEndian.Uint64(r.bytes(8)) }

func (r *reader) addr() addr.Address {
	a, err := addr.Decode(r.bytes(addr.EncodedSize))
	if err != nil {
		r.fail()
	}
	return a
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
// (flags, protocol, entry, rank, group, view, sender, sequence) and the
// sections the packet has (built in scratch, on the stack up to a view of
// twenty or so, each setting its flag), then the payload — marshalled here,
// once, or, for a packet sent on under a new header (a relayed cast under the
// relay site's view, a submission the holder stamps), the payload bytes it
// came with.
func (p *dataPacket) encode() (err error) {
	var scratch [128]byte
	h := binary.AppendVarint(append(scratch[:0], wireVersion, ptData, 0, byte(p.proto), byte(p.entry)), int64(p.rank))
	h = binary.AppendUvarint(p.group.AppendEncoded(h), uint64(p.view))
	h = binary.AppendUvarint(p.id.Sender.AppendEncoded(h), p.id.Seq)
	if len(p.vt) > 0 {
		h[envelopeBytes] |= dataHasVT
		h = p.vt.AppendEncode(h)
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

// parseHeader reads the header of a ptData body into p and returns its flags.
// It allocates nothing.
func (p *dataPacket) parseHeader(r *reader) (flags byte) {
	if flags = r.byte(); flags&^(dataHasVT|dataIsRelay|dataHasDests) != 0 { // a flags bit no section defines
		r.fail()
	}
	p.proto, p.entry, p.rank = Protocol(r.byte()), addr.EntryID(r.byte()), int16(r.varint())
	p.group, p.view = r.addr(), core.ViewID(r.uvarint())
	p.id.Sender, p.id.Seq = r.addr(), r.uvarint()
	return flags
}

// appendAddrs writes an address list as a count and 8 bytes each; addrs reads
// one back into a list of its own (nil when empty).
func appendAddrs(b []byte, l addr.List) []byte {
	b = binary.AppendUvarint(b, uint64(len(l)))
	for _, a := range l {
		b = a.AppendEncoded(b)
	}
	return b
}

func (r *reader) addrs() (l addr.List) {
	if n := r.uvarint(); n > uint64(len(r.b)/addr.EncodedSize) {
		r.fail()
	} else if n > 0 {
		l = make(addr.List, n)
	}
	for i := range l {
		l[i] = r.addr()
	}
	return l
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
	r := reader{b: raw[envelopeBytes:]}
	flags := p.parseHeader(&r)
	var err error
	if flags&dataHasVT != 0 {
		if p.vt, r.b, err = vclock.DecodePrefix(p.vtBuf[:0], r.b); err != nil {
			r.fail()
		}
	}
	if flags&dataIsRelay != 0 {
		p.after, p.call = r.relay()
	}
	if flags&dataHasDests != 0 {
		p.dests = r.addrs()
	}
	if r.bad {
		return nil, false
	}
	p.body = len(raw) - len(r.b)
	p.payload, err = msg.UnmarshalOwned(r.b, 4)
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

// appendRelay writes a relay stamp and the call it goes with (view, rank,
// seq, call): a relay request's section, and the whole of its ptRelayAck.
func appendRelay(b []byte, s relayStamp, call int64) []byte {
	b = binary.AppendVarint(binary.AppendUvarint(b, uint64(s.view)), int64(s.rank))
	return binary.AppendUvarint(binary.AppendUvarint(b, s.seq), uint64(call))
}

// relay reads what appendRelay wrote.
func (r *reader) relay() (relayStamp, int64) {
	s := relayStamp{view: core.ViewID(r.uvarint()), rank: int(r.varint()), seq: r.uvarint()}
	return s, int64(r.uvarint())
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

// A report travels as a count of entries, each the message id (sender 8,
// sequence), a flags byte that is always 4 (the tag of the recent list in the
// reports that also listed undelivered and fenced ABCASTs; any other value is
// malformed) and a length, followed by that many bytes of the nested packet as
// it travelled.
const reportRecent = 1 << 2

// size is the report's length on the wire.
func (r pendingReport) size() int {
	n := uvarintLen(uint64(len(r)))
	for _, rc := range r {
		n += addr.EncodedSize + uvarintLen(rc.ID.Seq) + 1 + uvarintLen(uint64(len(rc.Packet))) + len(rc.Packet)
	}
	return n
}

func (r pendingReport) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(r)))
	for _, rc := range r {
		b = append(binary.AppendUvarint(rc.ID.Sender.AppendEncoded(b), rc.ID.Seq), reportRecent)
		b = append(binary.AppendUvarint(b, uint64(len(rc.Packet))), rc.Packet...)
	}
	return b
}

// report reads a report back; its packets are views of the packet read.
func (r *reader) report() (rep pendingReport) {
	for n := r.uvarint(); n > 0 && !r.bad; n-- {
		rc := recentWire{ID: core.MsgID{Sender: r.addr(), Seq: r.uvarint()}}
		if r.byte() != reportRecent {
			r.fail()
		}
		rc.Packet = r.bytes(r.uvarint())
		rep = append(rep, rc)
	}
	return rep
}

// appendView writes a view: group 8, id, name (length, the bytes), members
// (appendAddrs). viewBytes is its length, view reads it back.
func appendView(b []byte, v core.View) []byte {
	b = binary.AppendUvarint(v.Group.AppendEncoded(b), uint64(v.ID))
	return appendAddrs(append(binary.AppendUvarint(b, uint64(len(v.Name))), v.Name...), v.Members)
}

func viewBytes(v core.View) int {
	return addr.EncodedSize + uvarintLen(uint64(v.ID)) + uvarintLen(uint64(len(v.Name))) + len(v.Name) + addrsBytes(v.Members)
}

// addrsBytes is the length of appendAddrs' list, and uvarintLen of x as a uvarint.
func addrsBytes(l addr.List) int { return uvarintLen(uint64(len(l))) + addr.EncodedSize*len(l) }
func uvarintLen(x uint64) int    { return (bits.Len64(x|1) + 6) / 7 }

func (r *reader) view() (v core.View) {
	v.Group, v.ID = r.addr(), core.ViewID(r.uvarint())
	v.Name = string(r.bytes(r.uvarint()))
	v.Members = r.addrs()
	return v
}

// gbPacket is every packet of the GBCAST family: a request and its done, a
// prepare and its ack, a commit (or a gbNonPrimary or gbResume notice). What a
// type does not use stays zero, and a section off the wire. Its head: call id,
// group 8, kind 1, request id 8, seal target 8 (a request id too), outcome 1,
// flags 1; then the flagged sections. The fields are in the order that keeps
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
	size := envelopeBytes + uvarintLen(uint64(p.call)) + 2*addr.EncodedSize + 2*8 + 4 + addrsBytes(p.procs) +
		addrsBytes(p.dead) + addrsBytes(p.xfers) + viewBytes(p.view) + p.report.size()
	if p.payload != nil {
		size += p.payload.MarshaledSize()
	}
	be := binary.BigEndian
	b := binary.AppendUvarint(append(make([]byte, 0, size), wireVersion, pt), uint64(p.call))
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
	r := reader{b: b}
	p.call, p.group, p.kind = int64(r.uvarint()), r.addr(), int64(r.byte())
	p.reqID, p.sealTarget, p.outcome = int64(r.fixed64()), int64(r.fixed64()), int64(r.byte())
	flags := r.byte()
	p.wantState, p.force = flags&gbWantState != 0, flags&gbForce != 0
	if p.kind > gbSeal {
		r.fail()
	}
	if flags&gbHasProcs != 0 {
		p.procs = r.addrs()
	}
	if flags&gbHasView != 0 {
		p.view = r.view()
	}
	if flags&gbHasReport != 0 {
		p.report = r.report()
	}
	if flags&gbHasDead != 0 {
		p.dead = r.addrs()
	}
	if flags&gbHasXfers != 0 {
		p.xfers = r.addrs()
	}
	if flags&gbHasPayload == 0 {
		return !r.bad && len(r.b) == 0
	}
	p.entry, p.sender = addr.EntryID(r.byte()), r.addr()
	if r.bad {
		return false
	}
	var err error
	p.payload, err = msg.UnmarshalOwned(r.b, 0)
	return err == nil
}

// lookupPacket is both a lookup (ptLookup: by its view's group or name, or
// both) and a site's answer (ptLookupResp: the answering site, whether its copy
// is primary, and the view it holds, the zero view for none). Layout: call id,
// site, primary 1, then the view.
type lookupPacket struct {
	call    int64
	site    addr.SiteID
	primary bool
	view    core.View
}

func (l lookupPacket) encode(pt byte) []byte {
	b := append(make([]byte, 0, envelopeBytes+uvarintLen(uint64(l.call))+uvarintLen(uint64(l.site))+1+viewBytes(l.view)), wireVersion, pt)
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(l.call)), uint64(l.site))
	return appendView(append(b, bit(l.primary)), l.view)
}

func parseLookup(b []byte) (l lookupPacket, ok bool) {
	r := reader{b: b}
	l.call, l.site, l.primary, l.view = int64(r.uvarint()), addr.SiteID(r.uvarint()), r.flag(), r.view()
	return l, !r.bad && len(r.b) == 0
}

// stateHeader leads a state block (ptStateBlock; the block follows to the end):
// group 8, joiner 8, transfer id, last 1.
type stateHeader struct {
	group, joiner addr.Address
	xferID        uint64 // the view id the provider shipped under
	last          bool
}

// encode builds the packet, writing the block into it: the one copy the
// provider's bytes take on their way to the wire.
func (h stateHeader) encode(block []byte) []byte {
	b := append(make([]byte, 0, envelopeBytes+2*addr.EncodedSize+uvarintLen(h.xferID)+1+len(block)), wireVersion, ptStateBlock)
	b = binary.AppendUvarint(h.joiner.AppendEncoded(h.group.AppendEncoded(b)), h.xferID)
	return append(append(b, bit(h.last)), block...)
}

// parseState reads a state header and returns the block after it as a capped
// sub-slice of b: the receiver's to keep and write, nothing grows into what
// follows it in the frame.
func parseState(b []byte) (h stateHeader, block []byte, ok bool) {
	r := reader{b: b}
	h.group, h.joiner, h.xferID, h.last = r.addr(), r.addr(), r.uvarint(), r.flag()
	return h, r.b[:len(r.b):len(r.b)], !r.bad
}

// encode builds the packet of type pt an answer to call travels as: an error is
// the call id and its text, a relay's acknowledgement the relay section.
func (a answer) encode(pt byte, call int64) []byte {
	switch pt {
	case ptError:
		return append(binary.AppendUvarint([]byte{wireVersion, ptError}, uint64(call)), a.err.Error()...)
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
	}
	r := reader{b: b}
	if pt == ptRelayAck {
		a.stamp, call = r.relay()
		return call, a, !r.bad && len(r.b) == 0
	}
	call = int64(r.uvarint())
	if r.bad {
		return 0, a, false
	}
	text := string(r.b)
	a.err = fmt.Errorf("protos: remote error: %s", text)
	for _, sentinel := range []error{ErrNonPrimary, ErrUnknownGroup, ErrNotMember, ErrUnknownProc, ErrDeadProcess, ErrClosed, errNotCoordinator} {
		if text == sentinel.Error() {
			a.err = sentinel
		}
	}
	return call, a, true
}

// bit is 1 for true.
func bit(on bool) byte {
	if on {
		return 1
	}
	return 0
}
