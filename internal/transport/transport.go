package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/netback"
)

// SiteID aliases the network's site identifier.
type SiteID = addr.SiteID

// Handler receives a fully reassembled message from a peer site. Handlers
// are invoked sequentially per source site, preserving FIFO order. Data is the
// handler's to keep and write, never to grow: other messages share its frame.
type Handler func(from SiteID, data []byte)

// Config holds transport parameters.
type Config struct {
	// MaxPacket is the largest backend payload: queued messages are
	// coalesced into frames up to this size, and one too long for any frame
	// is cut to fill the frame it starts in. Defaults to the network's
	// MaxPacket, or 4096 when the network imposes no limit.
	MaxPacket int
	// RetransmitInterval is how often unacknowledged packets are resent.
	RetransmitInterval time.Duration
	// AckDelay is how long the receiver may hold an ack it owes before
	// sending it in a dedicated packet, giving reverse-direction data frames a
	// chance to carry it for free; the delay starts when the ack falls due,
	// afresh after a frame has carried the last one. Zero (or less) selects
	// RetransmitInterval/4, which lets an ack held its full delay reach the
	// sender within 3/4 of the interval on any link of up to RI/4 one way.
	AckDelay time.Duration
	// Epoch distinguishes restarts of the same site: it seeds the high bits
	// of every outgoing stream's epoch, so peers recognise a restarted
	// site's fresh sequence numbering instead of discarding it as
	// duplicates. It must increase across restarts; the protocols daemon
	// derives it from the site incarnation. Zero selects 1.
	Epoch uint64
	// DisableBatching caps every frame at one record and owes each received
	// frame's ack at once, with no AckDelay: the unbatched baseline the
	// benchmark ablation compares against. The immediate ack still rides a
	// data frame the peer's flusher sends back, if one is queued. The flusher
	// does all the sending in both modes, so neither Send nor the receive
	// path blocks on the link.
	DisableBatching bool
}

// DefaultConfig derives a transport configuration from a backend's
// physical profile.
func DefaultConfig(p netback.Profile) Config {
	maxPkt := p.MaxPacket
	if maxPkt <= 0 {
		maxPkt = 4096
	}
	rto := 4 * p.Delay
	if rto < 20*time.Millisecond {
		rto = 20 * time.Millisecond
	}
	return Config{MaxPacket: maxPkt, RetransmitInterval: rto, AckDelay: rto / 4}
}

// Stats counts transport-level activity.
type Stats struct {
	MessagesSent      uint64
	MessagesDelivered uint64
	FragmentsSent     uint64 // records cut from queued messages, one for a message that fits a frame
	FramesSent        uint64 // simnet frames carrying data (batches count once)
	Coalesced         uint64 // records that shared a frame with an earlier one
	Retransmissions   uint64
	DuplicatesDropped uint64
	AcksSent          uint64 // dedicated ack frames
	AcksPiggybacked   uint64 // acks carried by data frames instead
}

// frame kinds. 3 and 4, the data frames of an earlier layout, are retired:
// handlePacket drops them.
const (
	kindAck      = 2 // pure cumulative ack
	kindFrame    = 5 // batch of records with piggybacked ack
	kindFrameLow = 6 // kindFrame whose first record is the sender's lowest outstanding sequence
)

// Sizes of the wire format above.
const (
	ackSize = 17
	// maxHead bounds a data frame's head (a kind byte, four 32-bit epoch
	// halves, the ack and the first sequence) and one record's length word.
	maxHead = 1 + 4*binary.MaxVarintLen32 + 3*binary.MaxVarintLen64
)

// Record flags, the low two bits of a record's length word.
const (
	flagLastFragment = 0x01 // the record ends its message
	flagContinues    = 0x02 // the record is not its message's first
)

// Errors.
var (
	ErrClosed   = errors.New("transport: closed")
	ErrTooSmall = errors.New("transport: MaxPacket too small for header")
)

// sendRec is one record in a peer's send window. Its head is written as the
// record is copied into a frame.
type sendRec struct {
	frag   []byte    // a sub-slice of the bytes Send was given; never written
	flags  byte      // flagLastFragment and flagContinues
	sentAt time.Time // last transmission
}

// peerSend tracks the sending half of a connection to one peer site. Send
// queues whole messages, unnumbered; the flusher cuts records from them as it
// fills frames and numbers each as it first goes into one. The window holds
// exactly the records sent and not yet acknowledged, indexed by sequence:
// window[head+i] carries sequence base+i.
type peerSend struct {
	epoch   uint64 // stream epoch stamped on outgoing frames
	nextSeq uint64 // the number of the next record cut
	window  []sendRec
	head    int      // index of the lowest unacknowledged record
	base    uint64   // its sequence number (nextSeq when the window is empty)
	queue   [][]byte // messages not yet all in records, from queue[qhead] on
	qhead   int
	cont    bool          // queue[qhead] is the rest of a message whose head was cut
	kick    chan struct{} // wakes the per-peer flusher

	// Liveness, read and cleared by Poll: heard is set by any frame from the
	// peer, sent by any frame to it but a keepalive, and keepalive is a bare
	// ack Poll asked the flusher for.
	heard, sent, keepalive bool
}

// outstanding counts the records awaiting an ack and the messages awaiting a frame.
func (ps *peerSend) outstanding() int { return len(ps.window) - ps.head + len(ps.queue) - ps.qhead }

// reset drops the window and the queue and renumbers the stream from 1 under a
// bumped epoch, so the peer starts a fresh receive stream and no frame of the
// old numbering can be confused with the new one.
func (ps *peerSend) reset() {
	ps.epoch++
	ps.nextSeq, ps.base, ps.head, ps.qhead, ps.cont = 1, 1, 0, 0, false
	ps.window, ps.queue = nil, nil
}

// wake nudges the peer's flusher into a pass; it never blocks.
func (ps *peerSend) wake() {
	select {
	case ps.kick <- struct{}{}:
	default: // a pass is already due
	}
}

// at returns the window record carrying sequence seq, in [base, nextSeq).
func (ps *peerSend) at(seq uint64) *sendRec { return &ps.window[ps.head+int(seq-ps.base)] }

// dropFront clears s[*head:*head+n] and moves *head past it; it empties s,
// or compacts it once half is dead so a standing backlog cannot grow it.
func dropFront[T any](s []T, head *int, n int) []T {
	clear(s[*head : *head+n])
	*head += n
	switch {
	case *head == len(s):
		s, *head = s[:0], 0
	case *head >= 64 && *head >= len(s)/2:
		n := copy(s, s[*head:])
		clear(s[n:])
		s, *head = s[:n], 0
	}
	return s
}

// peerRecv is the receive-side bookkeeping for one peer.
type peerRecv struct {
	epoch        uint64            // stream epoch of the incoming stream
	nextExpected uint64            // next in-order sequence number
	buffered     map[uint64]subRec // out-of-order records awaiting gap fill; nil until one arrives
	frags        [][]byte          // earlier fragments of the message being reassembled, in received frames
	delivered    bool              // any record of this epoch delivered in order
	ackOwed      bool              // a (re-)ack must reach the peer
	ackDue       time.Time         // when an owed ack goes bare, set as it falls due
	ackTimer     *time.Timer       // wakes the flusher at ackDue, re-armed for every obligation
}

type subRec struct {
	flags   byte
	payload []byte
}

// Transport is one site's reliable messaging endpoint. It is safe for
// concurrent use.
type Transport struct {
	cfg     Config
	ep      netback.Endpoint
	site    SiteID
	handler Handler

	// epochBase seeds every outgoing stream's epoch: incarnation in the
	// high 32 bits, leaving the low 32 for per-peer stream resets.
	epochBase uint64

	mu     sync.Mutex
	sends  map[SiteID]*peerSend
	recvs  map[SiteID]*peerRecv
	stats  Stats
	closed bool

	done chan struct{}
	wg   sync.WaitGroup
}

// New creates a transport bound to the given backend endpoint and starts its
// receive and retransmission loops. The handler is invoked for every
// reassembled message; it must not block indefinitely.
func New(ep netback.Endpoint, cfg Config, handler Handler) (*Transport, error) {
	if cfg.MaxPacket <= maxHead {
		return nil, fmt.Errorf("%w: MaxPacket=%d", ErrTooSmall, cfg.MaxPacket)
	}
	if cfg.RetransmitInterval <= 0 {
		cfg.RetransmitInterval = 20 * time.Millisecond
	}
	switch {
	case cfg.DisableBatching:
		cfg.AckDelay = 0 // an ack is due as soon as it is owed
	case cfg.AckDelay <= 0:
		cfg.AckDelay = cfg.RetransmitInterval / 4
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	t := &Transport{
		cfg:       cfg,
		ep:        ep,
		site:      ep.Site(),
		handler:   handler,
		epochBase: cfg.Epoch << 32,
		sends:     make(map[SiteID]*peerSend),
		recvs:     make(map[SiteID]*peerRecv),
		done:      make(chan struct{}),
	}
	t.wg.Add(2)
	go t.recvLoop()
	go t.retransmitLoop()
	return t, nil
}

// Site returns the local site id.
func (t *Transport) Site() SiteID { return t.site }

// Stats returns a snapshot of the transport counters.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Unacked returns the number of records sent and not yet acknowledged plus
// the messages queued and not yet all cut into records, across all peers: 0
// means all Send was given has arrived. The protocols' flush waits on it.
func (t *Transport) Unacked() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, ps := range t.sends {
		n += ps.outstanding()
	}
	return n
}

// Poll reports each peer the transport has a stream with, and whether any
// frame (data or a bare ack) came from it since the last poll, and has each
// peer that was sent nothing since then sent a bare ack: a keepalive,
// unsequenced, never retransmitted, idempotent, and not counted as traffic by
// the next poll. heard runs under the transport's lock.
func (t *Transport) Poll(heard func(site SiteID, any bool)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for site, ps := range t.sends {
		heard(site, ps.heard)
		if !ps.sent {
			ps.keepalive = true
			ps.wake()
		}
		ps.heard, ps.sent = false, false
	}
}

// Forget drops the send window to a site and starts a new stream epoch to it:
// the records it held never arrive, and later ones are numbered from 1 under
// the bumped epoch, which the peer adopts. The protocols daemon forgets a
// suspected site that no view it hosts lists.
func (t *Transport) Forget(site SiteID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ps, ok := t.sends[site]; ok && ps.outstanding() > 0 {
		ps.reset()
	}
}

// Close stops the transport's background goroutines. In-flight messages may
// be lost, exactly as when a site crashes.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	close(t.done)
	for _, pr := range t.recvs {
		if pr.ackTimer != nil {
			pr.ackTimer.Stop()
		}
	}
	t.mu.Unlock()
	t.wg.Wait()
}

// Send reliably transmits data to the destination site: it queues the whole
// message, unnumbered, for the destination's flusher (see buildFrameLocked).
// Delivery is asynchronous and guaranteed unless either site crashes. The
// queue and then the window refer to data until the peer acknowledges it, so
// data is the transport's from here on and Send allocates nothing.
func (t *Transport) Send(to SiteID, data []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	ps := t.peerSendLocked(to)
	ps.queue = append(ps.queue, data)
	t.stats.MessagesSent++
	t.mu.Unlock()
	ps.wake()
	return nil
}

// peerSendLocked returns the sending half of the connection to a peer, opened
// — with the flusher that is the only sender on its link — on first use, by
// a Send or by the first frame from the peer, a bare ack included, whose acks
// and keepalives the flusher sends. Caller holds t.mu, and the transport is
// not closed.
func (t *Transport) peerSendLocked(to SiteID) *peerSend {
	ps, ok := t.sends[to]
	if !ok {
		ps = &peerSend{epoch: t.epochBase, nextSeq: 1, base: 1, kick: make(chan struct{}, 1)}
		t.sends[to] = ps
		t.wg.Add(1)
		go t.runFlusher(to, ps)
	}
	return ps
}

// runFlusher runs a pass each time Send, the retransmission ticker, the ack
// timer or Poll wakes it. While a frame is on the wire, newly queued messages
// accumulate and share the next frame: batching with no idle-path latency.
// Every frame is built in the flusher's one buffer: the backend is done with
// it when Send returns.
func (t *Transport) runFlusher(to SiteID, ps *peerSend) {
	defer t.wg.Done()
	frame := make([]byte, 0, t.cfg.MaxPacket)
	for {
		select {
		case <-t.done:
			return
		case <-ps.kick:
		}
		frame = t.flush(to, ps, frame)
	}
}

// flush is one pass of a peer's flusher, and the only code that puts a frame
// on the peer's link. One frame per lock hold — the network send must not
// run under t.mu — it sends, in order: the run of records, from the lowest
// outstanding one, whose ack is at least RetransmitInterval overdue; the
// messages queued since; and a dedicated ack if one is owed and due, or a
// keepalive if Poll asked for one and no frame went since.
func (t *Transport) flush(to SiteID, ps *peerSend, frame []byte) []byte {
	// next never moves back within a stream, so a pass resends a record at
	// most once however long it runs.
	for next := uint64(0); ; {
		now := time.Now()
		t.mu.Lock()
		next = max(next, ps.base) // acks (or a stream reset) moved the window on
		if !t.overdueLocked(ps, next, now) {
			next = ps.nextSeq
		}
		if next < ps.nextSeq || ps.qhead < len(ps.queue) {
			frame, next = t.buildFrameLocked(to, ps, frame[:0], next, now)
		} else if frame = t.appendAckLocked(to, ps, frame[:0], now); len(frame) == 0 {
			t.mu.Unlock()
			return frame
		}
		t.mu.Unlock()
		_ = t.ep.Send(to, frame)
	}
}

// buildFrameLocked appends to frame (which is empty) one data frame of at
// most MaxPacket bytes carrying records from sequence first on: window records
// while each is overdue and fits, then records cut from the queue (one record
// in all under DisableBatching). It stamps the piggybacked ack and the
// records' transmission time, counts the frame, and returns it with the
// sequence after its last record. Caller holds t.mu and guarantees that first
// is overdue, or is nextSeq with a message queued.
func (t *Transport) buildFrameLocked(to SiteID, ps *peerSend, frame []byte, first uint64, now time.Time) ([]byte, uint64) {
	// Receivers may adopt a mid-flight stream only at a frame that leads with
	// the sender's lowest outstanding sequence (see handleFrame).
	kind := byte(kindFrame)
	if first == ps.base {
		kind = kindFrameLow
	}
	var ackEpoch, ackCum uint64
	pr := t.recvs[to]
	if pr != nil {
		ackEpoch, ackCum = pr.epoch, pr.nextExpected-1
	}
	frame = appendHead(frame, kind, ps.epoch, ackEpoch, ackCum, first)
	if first < ps.nextSeq && len(ps.at(first).frag) > fit(t.cfg.MaxPacket-len(frame)) {
		// The resent record was sized against a shorter ack: with none, the
		// head is no longer than the one it was sized against (see room).
		pr, frame = nil, appendHead(frame[:0], kind, ps.epoch, 0, 0, first)
	}
	if pr != nil && pr.ackOwed {
		pr.ackOwed = false
		t.stats.AcksPiggybacked++
	}
	seq := first
	for ; seq == first || !t.cfg.DisableBatching; seq++ {
		// The room a frame led by seq, with no ack, would leave: a record is
		// always resent, if need be at the head of a frame of its own.
		room := fit(t.cfg.MaxPacket - len(frame) + uvarintLen(first) - uvarintLen(seq))
		if seq < ps.nextSeq {
			if !t.overdueLocked(ps, seq, now) || len(ps.at(seq).frag) > room {
				break
			}
			t.stats.Retransmissions++
		} else if !t.cutLocked(ps, room) {
			break
		}
		r := ps.at(seq)
		frame = binary.AppendUvarint(frame, uint64(len(r.frag))<<2|uint64(r.flags))
		frame = append(frame, r.frag...)
		r.sentAt = now
	}
	ps.sent, ps.keepalive = true, false
	t.stats.FramesSent++
	t.stats.Coalesced += seq - first - 1
	return frame, seq
}

// appendHead appends a data frame's head: the kind, the stream epoch and the
// piggybacked ack's epoch, each as its incarnation and reset count, the
// cumulative ack and the first record's sequence, all uvarints.
func appendHead(b []byte, kind byte, epoch, ackEpoch, ackCum, first uint64) []byte {
	b = append(b, kind)
	for _, v := range [...]uint64{epoch >> 32, epoch & math.MaxUint32, ackEpoch >> 32, ackEpoch & math.MaxUint32, ackCum, first} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// uvarintLen is the length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// fit returns the length of a payload whose record, length word included,
// fits in n bytes: the longest, or one byte less where the word's length
// steps up; below 0 when not even an empty record fits.
func fit(n int) int { return n - uvarintLen(uint64(max(n, 0))<<2) }

// cutLocked appends to the window, numbered nextSeq, a record of the first
// queued message: all that is left of it if that fits in room bytes, else its
// first room bytes if it is too long for an empty frame, and else nothing —
// so only a message longer than a frame is reassembled by the receiver. It
// reports whether it cut a record. Caller holds t.mu.
func (t *Transport) cutLocked(ps *peerSend, room int) bool {
	if ps.qhead == len(ps.queue) {
		return false
	}
	msg := ps.queue[ps.qhead]
	if len(msg) > room && (room <= 0 || len(msg) <= t.cfg.MaxPacket-maxHead) {
		return false
	}
	r := sendRec{frag: msg[:min(len(msg), room)]}
	if ps.cont {
		r.flags = flagContinues
	}
	if ps.cont = len(r.frag) < len(msg); ps.cont {
		ps.queue[ps.qhead] = msg[len(r.frag):]
	} else {
		r.flags |= flagLastFragment
		ps.queue = dropFront(ps.queue, &ps.qhead, 1)
	}
	ps.window = append(ps.window, r)
	ps.nextSeq++
	t.stats.FragmentsSent++
	return true
}

// appendAckLocked appends to frame (which is empty) a dedicated ack frame,
// if one is owed that no data frame has carried and it was due by now, or if
// Poll asked for a keepalive, and clears both. A peer nothing came from yet
// is acked epoch 0, which retires nothing. Caller holds t.mu.
func (t *Transport) appendAckLocked(to SiteID, ps *peerSend, frame []byte, now time.Time) []byte {
	pr := t.recvs[to]
	owed := pr != nil && pr.ackOwed && !now.Before(pr.ackDue)
	if !owed && !ps.keepalive {
		return frame
	}
	ps.sent = ps.sent || !ps.keepalive
	ps.keepalive = false
	t.stats.AcksSent++
	var epoch, cum uint64
	if pr != nil {
		pr.ackOwed = false
		epoch, cum = pr.epoch, pr.nextExpected-1
	}
	frame = append(frame, kindAck)
	frame = binary.BigEndian.AppendUint64(frame, epoch)
	return binary.BigEndian.AppendUint64(frame, cum)
}

// recvLoop dispatches packets arriving from the network.
func (t *Transport) recvLoop() {
	defer t.wg.Done()
	for {
		select {
		case <-t.done:
			return
		case pkt := <-t.ep.Recv():
			t.handlePacket(pkt)
		}
	}
}

// retransmitLoop wakes the flusher of every peer whose lowest outstanding
// record is overdue. It ticks twice per RetransmitInterval, so an
// unacknowledged record is resent between one and one and a half intervals
// after its last transmission.
func (t *Transport) retransmitLoop() {
	defer t.wg.Done()
	ticker := time.NewTicker((t.cfg.RetransmitInterval + 1) / 2)
	defer ticker.Stop()
	for {
		select {
		case <-t.done:
			return
		case now := <-ticker.C:
			t.mu.Lock()
			for _, ps := range t.sends {
				if t.overdueLocked(ps, ps.base, now) {
					ps.wake()
				}
			}
			t.mu.Unlock()
		}
	}
}

// overdueLocked reports whether sequence seq is in the window (sent and not
// yet acknowledged) and was last sent at least RetransmitInterval before now.
// Caller holds t.mu.
func (t *Transport) overdueLocked(ps *peerSend, seq uint64, now time.Time) bool {
	return seq >= ps.base && seq < ps.nextSeq && now.Sub(ps.at(seq).sentAt) >= t.cfg.RetransmitInterval
}

func (t *Transport) handlePacket(pkt netback.Packet) {
	if len(pkt.Payload) == 0 {
		return
	}
	switch pkt.Payload[0] {
	case kindAck:
		if len(pkt.Payload) < ackSize {
			return
		}
		t.applyAck(pkt.From, binary.BigEndian.Uint64(pkt.Payload[1:9]), binary.BigEndian.Uint64(pkt.Payload[9:17]))
	case kindFrame, kindFrameLow:
		t.handleFrame(pkt.From, pkt.Payload)
	}
}

// applyAck retires the window records covered by a cumulative ack. The ack
// only applies to the stream epoch it names: an ack minted for a previous
// incarnation's numbering must not retire the current stream's records. Every
// frame carries an ack, so this is where a peer is heard from, and where a
// peer that sent only bare acks is opened: a site that forgot this one, or
// restarted, is heard here and answered with keepalives of its own.
func (t *Transport) applyAck(from SiteID, ackEpoch, cumSeq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return // opening a flusher now would race wg.Add against Close's wg.Wait
	}
	ps := t.peerSendLocked(from)
	ps.heard = true
	if ps.epoch != ackEpoch {
		return
	}
	if cumSeq >= ps.nextSeq {
		cumSeq = ps.nextSeq - 1 // only what has been on the wire can have arrived
	}
	if cumSeq >= ps.base {
		ps.window = dropFront(ps.window, &ps.head, int(cumSeq-ps.base+1))
		ps.base = cumSeq + 1
	}
}

// handleFrame processes one data frame: applies its piggybacked ack, feeds
// each record, numbered from the head's first sequence, through the
// sequencing machinery, delivers every message completed by in-order records,
// and schedules the ack. A frame whose head does not parse is dropped.
func (t *Transport) handleFrame(from SiteID, raw []byte) {
	var head [6]uint64 // the epoch's and the ack epoch's halves, the ack, the first sequence
	body := raw[1:]
	for i := range head {
		v, n := binary.Uvarint(body)
		if n <= 0 || i < 4 && v > math.MaxUint32 {
			return
		}
		head[i], body = v, body[n:]
	}
	senderEpoch, first := head[0]<<32|head[1], head[5]
	t.applyAck(from, head[2]<<32|head[3], head[4])

	t.mu.Lock()
	if t.closed {
		// A frame can still arrive between Close and the endpoint detaching.
		t.mu.Unlock()
		return
	}
	ps := t.peerSendLocked(from)
	pr, ok := t.recvs[from]
	if !ok {
		pr = &peerRecv{epoch: senderEpoch, nextExpected: 1}
		t.recvs[from] = pr
	}
	if senderEpoch < pr.epoch {
		// Straggler from a dead incarnation (or a pre-reset stream): its
		// sequence numbers belong to a numbering that no longer exists.
		t.stats.DuplicatesDropped++
		t.mu.Unlock()
		return
	}
	if senderEpoch > pr.epoch {
		// The peer restarted (higher incarnation) or reset its stream to
		// us: begin a fresh receive stream. Anything buffered belongs to the
		// dead numbering and is discarded, as when a site crashes.
		restarted := senderEpoch>>32 > pr.epoch>>32
		pr.epoch, pr.nextExpected, pr.buffered, pr.frags, pr.delivered = senderEpoch, 1, nil, nil, false
		if restarted {
			// The restarted peer lost its receive state for our stream too:
			// renumber ours from 1 under a bumped epoch, which it accepts.
			// What it had not acked died with the crash.
			ps.reset()
		}
	}
	progress, wasOwed := false, pr.ackOwed
	if raw[0] == kindFrameLow && !pr.delivered && len(body) > 0 {
		// Contact with a stream already in flight: this side has no receive
		// state for the numbering (it restarted, or lost the state). Records
		// below the frame's first sequence were retired against our
		// predecessor and will never be resent, so adopt the stream here —
		// but only at a frame the sender marked as leading with its lowest
		// outstanding sequence: a fresh frame can outrace the resending of an
		// older backlog, which adopting at it would discard. Once anything of
		// this epoch has been delivered the gap-fill machinery owns ordering.
		if first > pr.nextExpected {
			pr.nextExpected = first
			// Records beyond the new expectation may already sit in the buffer
			// (from unflagged frames that arrived first); count the adoption as
			// progress so they drain now. Older ones will never be asked for.
			progress = true
			for seq := range pr.buffered {
				if seq < first {
					delete(pr.buffered, seq)
				}
			}
		}
	}
	// Messages completed by this frame; the array keeps the common few off
	// the heap.
	var completeArr [8][]byte
	complete := completeArr[:0]
	// accept consumes the record carrying nextExpected. A single-fragment
	// message is handed on as the sub-slice of the received frame it arrived
	// in (netback gave the frame to the receiver); a fragmented one waits in
	// its frames until the last fragment, and one exact-size buffer takes it.
	// A continuation with no head before it starts an adopted stream: its
	// message lost the head with the earlier numbering, as in a crash.
	accept := func(flags byte, payload []byte) {
		pr.nextExpected++
		pr.delivered = true
		switch {
		case flags&flagContinues != 0 && len(pr.frags) == 0: // headless: dropped
		case flags&flagLastFragment == 0:
			pr.frags = append(pr.frags, payload)
		case len(pr.frags) == 0:
			complete = append(complete, payload)
		default:
			pr.frags = append(pr.frags, payload)
			complete = append(complete, slices.Concat(pr.frags...))
			clear(pr.frags)
			pr.frags = pr.frags[:0]
		}
	}
	for seq := first; len(body) > 0; seq++ {
		word, n := binary.Uvarint(body)
		if n <= 0 || word>>2 > uint64(len(body)-n) {
			break // corrupt tail; drop the rest of the frame
		}
		end := n + int(word>>2)
		flags, payload := byte(word&3), body[n:end]
		body = body[end:]

		switch {
		case seq < pr.nextExpected:
			// Duplicate of something already delivered: re-ack so the sender
			// stops retransmitting it.
			t.stats.DuplicatesDropped++
			pr.ackOwed = true
		case seq == pr.nextExpected:
			// In order, the steady state: no detour through the gap buffer.
			if len(pr.buffered) > 0 {
				delete(pr.buffered, seq) // an earlier out-of-order copy
			}
			accept(flags, payload)
			progress = true
		default:
			if _, dup := pr.buffered[seq]; dup {
				t.stats.DuplicatesDropped++
				continue
			}
			if pr.buffered == nil {
				pr.buffered = make(map[uint64]subRec)
			}
			pr.buffered[seq] = subRec{flags: flags, payload: payload}
		}
	}

	// Drain the gap buffer of everything the frame (or an adoption) put in
	// order.
	if progress {
		for len(pr.buffered) > 0 {
			rec, ok := pr.buffered[pr.nextExpected]
			if !ok {
				break
			}
			delete(pr.buffered, pr.nextExpected)
			accept(rec.flags, rec.payload)
		}
		pr.ackOwed = true
	}
	t.stats.MessagesDelivered += uint64(len(complete))

	// Ack policy: the flusher sends it, at once in the unbatched ablation,
	// otherwise AckDelay after it fell due unless a reverse data frame beats
	// it. The receive path never sends: a receive loop blocked on its full
	// reverse link while the peer's waits on the opposite one is a buffer
	// deadlock.
	if pr.ackOwed && !wasOwed {
		pr.ackDue = time.Now().Add(t.cfg.AckDelay)
		if t.cfg.DisableBatching {
			ps.wake()
		} else if pr.ackTimer == nil {
			pr.ackTimer = time.AfterFunc(t.cfg.AckDelay, func() { t.ackTimerFire(from) })
		} else {
			pr.ackTimer.Reset(t.cfg.AckDelay)
		}
	}
	handler := t.handler
	t.mu.Unlock()

	if handler != nil {
		for _, m := range complete {
			handler(from, m)
		}
	}
}

// ackTimerFire wakes the peer's flusher, which sends the dedicated ack if one
// is still owed and due: a data frame may have carried it meanwhile, and a
// wake from an earlier obligation's timer finds the present one not due.
func (t *Transport) ackTimerFire(from SiteID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.recvs[from].ackOwed {
		t.sends[from].wake()
	}
}
