package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/netback"
)

// SiteID aliases the network's site identifier.
type SiteID = addr.SiteID

// Handler receives a fully reassembled message from a peer site. Handlers
// are invoked sequentially per source site, preserving FIFO order. The handler
// may keep data but never write to it: other messages share the frame under it.
type Handler func(from SiteID, data []byte)

// Config holds transport parameters.
type Config struct {
	// MaxPacket is the largest backend payload; messages are fragmented so
	// that a frame holding one fragment fits within it, and queued fragments
	// are coalesced into frames up to this size. Defaults to the network's
	// MaxPacket, or 4096 when the network imposes no limit.
	MaxPacket int
	// RetransmitInterval is how often unacknowledged packets are resent.
	RetransmitInterval time.Duration
	// AckDelay is how long the receiver may wait before sending a dedicated
	// ack packet, giving reverse-direction data frames a chance to carry the
	// ack for free. Zero (or less) selects the default of 1ms.
	AckDelay time.Duration
	// Epoch distinguishes restarts of the same site: it seeds the high bits
	// of every outgoing stream's epoch, so peers recognise a restarted
	// site's fresh sequence numbering instead of discarding it as
	// duplicates. It must increase across restarts; the protocols daemon
	// derives it from the site incarnation. Zero selects 1.
	Epoch uint64
	// DisableBatching caps every frame at one fragment and acknowledges each
	// at once with a dedicated ack: the unbatched baseline the benchmark
	// ablation compares against. The per-peer flusher does the sending in
	// both modes, so Send never blocks on the link.
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
	return Config{MaxPacket: maxPkt, RetransmitInterval: rto}
}

// Stats counts transport-level activity.
type Stats struct {
	MessagesSent      uint64
	MessagesDelivered uint64
	FragmentsSent     uint64
	FramesSent        uint64 // simnet frames carrying data (batches count once)
	Coalesced         uint64 // fragments that shared a frame with an earlier one
	Retransmissions   uint64
	DuplicatesDropped uint64
	AcksSent          uint64 // dedicated ack frames
	AcksPiggybacked   uint64 // acks carried by data frames instead
}

// frame kinds.
const (
	kindAck      = 2 // pure cumulative ack
	kindFrame    = 3 // batch of sub-packet records with piggybacked ack
	kindFrameLow = 4 // kindFrame whose first record is the sender's lowest outstanding sequence
)

// Header sizes of the wire format above.
const (
	frameHeaderSize = 25
	subHeaderSize   = 13
	ackSize         = 17
)

const flagLastFragment = 0x01

// Errors.
var (
	ErrClosed   = errors.New("transport: closed")
	ErrTooSmall = errors.New("transport: MaxPacket too small for header")
)

// sendRec is one sub-packet record in a peer's send window. Its sub-header is
// written as the record is copied into a frame.
type sendRec struct {
	frag   []byte    // a sub-slice of the bytes Send was given; never written
	flags  byte      // flagLastFragment on a message's final fragment
	sentAt time.Time // last transmission; zero until the flusher first sends it
}

// size is the record's length in a frame.
func (r *sendRec) size() int { return subHeaderSize + len(r.frag) }

// peerSend tracks the sending half of a connection to one peer site. The
// window holds every record not yet acknowledged, indexed by sequence:
// window[head+i] carries sequence base+i. Records up to sentUpTo have been on
// the wire and wait for their ack (or a retransmission); the rest await their
// first transmission by the flusher.
type peerSend struct {
	epoch    uint64 // stream epoch stamped on outgoing frames
	nextSeq  uint64
	window   []sendRec
	head     int           // index of the lowest unacknowledged record
	base     uint64        // its sequence number (nextSeq when the window is empty)
	sentUpTo uint64        // highest sequence handed to a frame so far
	kick     chan struct{} // wakes the per-peer flusher
	started  bool          // flusher goroutine running
}

// outstanding returns the number of records awaiting an ack.
func (ps *peerSend) outstanding() int { return len(ps.window) - ps.head }

// at returns the window record carrying sequence seq, which must lie in
// [base, nextSeq).
func (ps *peerSend) at(seq uint64) *sendRec { return &ps.window[ps.head+int(seq-ps.base)] }

// retire drops the n lowest records from the window.
func (ps *peerSend) retire(n int) {
	clear(ps.window[ps.head : ps.head+n])
	ps.head += n
	ps.base += uint64(n)
	switch {
	case ps.head == len(ps.window):
		ps.window, ps.head = ps.window[:0], 0
	case ps.head >= 64 && ps.head >= len(ps.window)/2:
		// Keep the dead prefix from growing without bound under a standing
		// backlog.
		n := copy(ps.window, ps.window[ps.head:])
		clear(ps.window[n:])
		ps.window, ps.head = ps.window[:n], 0
	}
}

// peerRecv is the receive-side bookkeeping for one peer.
type peerRecv struct {
	epoch        uint64            // stream epoch of the incoming stream
	nextExpected uint64            // next in-order sequence number
	buffered     map[uint64]subRec // out-of-order records awaiting gap fill; nil until one arrives
	assembling   []byte            // earlier fragments of the message being reassembled
	delivered    bool              // any record of this epoch delivered in order
	ackOwed      bool              // a (re-)ack must reach the peer
	ackTimerSet  bool              // a delayed pure-ack is scheduled
	ackTimer     *time.Timer       // the delayed pure-ack timer, re-armed for every cycle
	ackCh        chan ackNote      // latest-wins mailbox for the ack sender
	ackStarted   bool              // ack-sender goroutine running
}

// ackNote is one epoch-qualified cumulative ack awaiting transmission.
type ackNote struct {
	epoch, cum uint64
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
	if cfg.MaxPacket <= frameHeaderSize+subHeaderSize {
		return nil, fmt.Errorf("%w: MaxPacket=%d", ErrTooSmall, cfg.MaxPacket)
	}
	if cfg.RetransmitInterval <= 0 {
		cfg.RetransmitInterval = 20 * time.Millisecond
	}
	if cfg.AckDelay <= 0 {
		cfg.AckDelay = time.Millisecond
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

// Unacked returns the number of transmitted packets not yet acknowledged by
// their destinations, across all peers. The protocols process uses it to
// implement the flush primitive.
func (t *Transport) Unacked() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, ps := range t.sends {
		n += ps.outstanding()
	}
	return n
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

// Send reliably transmits data to the destination site, fragmenting as
// needed. The fragments are queued for the destination's flusher, which
// coalesces whatever has accumulated into MaxPacket-sized frames; delivery
// is asynchronous and guaranteed (unless either site crashes). The window
// refers to data until the peer acknowledges it, so data is the transport's
// from here on — the caller never writes it again — and Send allocates nothing.
func (t *Transport) Send(to SiteID, data []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	ps := t.peerSendLocked(to)
	maxFrag := t.cfg.MaxPacket - frameHeaderSize - subHeaderSize
	// Queue all records under the lock so their sequence numbers are
	// contiguous even with concurrent senders.
	remaining := data
	n := 0
	for first := true; first || len(remaining) > 0; first = false {
		frag := remaining
		if len(frag) > maxFrag {
			frag = frag[:maxFrag]
		}
		remaining = remaining[len(frag):]
		flags := byte(0)
		if len(remaining) == 0 {
			flags = flagLastFragment
		}
		ps.window = append(ps.window, sendRec{frag: frag, flags: flags})
		ps.nextSeq++
		n++
	}
	t.stats.MessagesSent++
	t.stats.FragmentsSent += uint64(n)

	if !ps.started {
		ps.started = true
		t.wg.Add(1)
		go t.runFlusher(to, ps)
	}
	t.mu.Unlock()
	select {
	case ps.kick <- struct{}{}:
	default: // flusher already signalled
	}
	return nil
}

// peerSendLocked returns the sending half of the connection to a peer, opened
// on first use. Caller holds t.mu.
func (t *Transport) peerSendLocked(to SiteID) *peerSend {
	ps, ok := t.sends[to]
	if !ok {
		ps = &peerSend{epoch: t.epochBase, nextSeq: 1, base: 1, kick: make(chan struct{}, 1)}
		t.sends[to] = ps
	}
	return ps
}

// runFlusher drains one peer's queue, coalescing queued records into frames.
// While a frame is on the (simulated) wire, newly queued records accumulate
// and share the next frame — batching emerges under load with no idle-path
// latency cost. Every frame is built, from the bytes the window refers to, in
// the flusher's one buffer: the backend is done with it when Send returns.
func (t *Transport) runFlusher(to SiteID, ps *peerSend) {
	defer t.wg.Done()
	frame := make([]byte, 0, t.cfg.MaxPacket)
	for {
		select {
		case <-t.done:
			return
		case <-ps.kick:
		}
		// The ablation baseline caps every frame at one record (one wire
		// packet per fragment — no coalescing); the flusher still does the
		// sending, so callers never block on a backed-up link.
		maxRecs := 0
		if t.cfg.DisableBatching {
			maxRecs = 1
		}
		for {
			t.mu.Lock()
			if ps.sentUpTo+1 == ps.nextSeq {
				t.mu.Unlock()
				break
			}
			frame = t.buildFrameLocked(to, ps, frame[:0], ps.sentUpTo+1, ps.nextSeq-1, maxRecs, time.Now())
			t.mu.Unlock()
			_ = t.ep.Send(to, frame)
		}
	}
}

// buildFrameLocked appends to frame (which is empty) one data frame of at
// most MaxPacket bytes carrying the window records from sequence first up to
// at most last (and at most maxRecs of them when maxRecs > 0), stamps the
// piggybacked ack and the records' transmission time, and counts the frame.
// Caller holds t.mu and guarantees base <= first <= last < nextSeq.
func (t *Transport) buildFrameLocked(to SiteID, ps *peerSend, frame []byte, first, last uint64, maxRecs int, now time.Time) []byte {
	// Receivers may adopt a mid-flight stream only at a frame that leads with
	// the sender's lowest outstanding sequence (see handleFrame).
	kind := byte(kindFrame)
	if first == ps.base {
		kind = kindFrameLow
	}
	frame = append(frame, kind)
	frame = binary.BigEndian.AppendUint64(frame, ps.epoch)
	ackEpoch, ackCum := t.takeAckLocked(to)
	frame = binary.BigEndian.AppendUint64(frame, ackEpoch)
	frame = binary.BigEndian.AppendUint64(frame, ackCum)
	n := 0
	for seq := first; seq <= last; seq++ {
		r := ps.at(seq)
		if n > 0 && (len(frame)+r.size() > t.cfg.MaxPacket || (maxRecs > 0 && n >= maxRecs)) {
			break
		}
		frame = binary.BigEndian.AppendUint64(frame, seq)
		frame = append(frame, r.flags)
		frame = binary.BigEndian.AppendUint32(frame, uint32(len(r.frag)))
		frame = append(frame, r.frag...)
		r.sentAt = now
		n++
	}
	if sent := first + uint64(n) - 1; sent > ps.sentUpTo {
		ps.sentUpTo = sent
	}
	t.stats.FramesSent++
	if n > 1 {
		t.stats.Coalesced += uint64(n - 1)
	}
	return frame
}

// takeAckLocked returns the epoch-qualified cumulative ack to piggyback on a
// frame to the given peer and clears the pending dedicated-ack obligation.
// Caller holds t.mu.
func (t *Transport) takeAckLocked(to SiteID) (epoch, cum uint64) {
	pr, ok := t.recvs[to]
	if !ok {
		return 0, 0
	}
	if pr.ackOwed {
		pr.ackOwed = false
		t.stats.AcksPiggybacked++
	}
	return pr.epoch, pr.nextExpected - 1
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

// retransmitLoop periodically resends records whose ack is overdue. It ticks
// twice per RetransmitInterval, so an unacknowledged record is resent between
// one and one and a half intervals after its last transmission.
func (t *Transport) retransmitLoop() {
	defer t.wg.Done()
	ticker := time.NewTicker((t.cfg.RetransmitInterval + 1) / 2)
	defer ticker.Stop()
	frame := make([]byte, 0, t.cfg.MaxPacket)
	for {
		select {
		case <-t.done:
			return
		case <-ticker.C:
			t.retransmit(frame)
		}
	}
}

// retransmit resends, for every peer, the records that were last transmitted
// at least RetransmitInterval ago and are still unacknowledged, re-coalescing
// them into frames built in the caller's buffer. Transmission times never
// decrease along the window, so the overdue records are a prefix of it and
// the sweep's first frame leads with the stream's lowest outstanding sequence.
func (t *Transport) retransmit(frame []byte) {
	type overdue struct {
		to SiteID
		ps *peerSend
	}
	now := time.Now()
	var peers []overdue
	t.mu.Lock()
	for to, ps := range t.sends {
		if t.overdueLocked(ps, ps.base, now) {
			peers = append(peers, overdue{to, ps})
		}
	}
	t.mu.Unlock()
	for _, p := range peers {
		// One frame per lock hold: the network send must not run under t.mu.
		for next := uint64(0); ; {
			t.mu.Lock()
			if next < p.ps.base {
				next = p.ps.base // acks (or a stream reset) moved the window on
			}
			if !t.overdueLocked(p.ps, next, now) {
				t.mu.Unlock()
				break
			}
			last, size := next, frameHeaderSize+p.ps.at(next).size()
			for t.overdueLocked(p.ps, last+1, now) {
				if size += p.ps.at(last + 1).size(); size > t.cfg.MaxPacket {
					break
				}
				last++
			}
			frame = t.buildFrameLocked(p.to, p.ps, frame[:0], next, last, 0, now)
			t.stats.Retransmissions += last - next + 1
			next = last + 1
			t.mu.Unlock()
			_ = t.ep.Send(p.to, frame)
		}
	}
}

// overdueLocked reports whether sequence seq has been transmitted, is still
// unacknowledged, and was last sent at least RetransmitInterval before now.
// Caller holds t.mu.
func (t *Transport) overdueLocked(ps *peerSend, seq uint64, now time.Time) bool {
	return seq >= ps.base && seq <= ps.sentUpTo && now.Sub(ps.at(seq).sentAt) >= t.cfg.RetransmitInterval
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
		if len(pkt.Payload) < frameHeaderSize {
			return
		}
		t.handleFrame(pkt.From, pkt.Payload)
	}
}

// applyAck retires the window records covered by a cumulative ack. The ack
// only applies to the stream epoch it names: an ack minted for a previous
// incarnation's numbering must not retire the current stream's records.
func (t *Transport) applyAck(from SiteID, ackEpoch, cumSeq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ps, ok := t.sends[from]
	if !ok || ps.epoch != ackEpoch {
		return
	}
	if cumSeq > ps.sentUpTo {
		cumSeq = ps.sentUpTo // only what has been on the wire can have arrived
	}
	if cumSeq >= ps.base {
		ps.retire(int(cumSeq - ps.base + 1))
	}
}

// handleFrame processes one data frame: applies its piggybacked ack, feeds
// each sub-packet record through the sequencing machinery, delivers every
// message completed by in-order records, and schedules the ack.
func (t *Transport) handleFrame(from SiteID, raw []byte) {
	senderEpoch := binary.BigEndian.Uint64(raw[1:9])
	t.applyAck(from, binary.BigEndian.Uint64(raw[9:17]), binary.BigEndian.Uint64(raw[17:25]))
	body := raw[frameHeaderSize:]

	t.mu.Lock()
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
		pr.epoch = senderEpoch
		pr.nextExpected = 1
		pr.buffered = nil
		pr.assembling = nil
		pr.delivered = false
		if restarted {
			// The restarted peer's receive state for our stream is gone
			// too: renumber our stream from 1 under a bumped epoch so the
			// fresh peer accepts it. Unacked records died with the crash.
			t.resetSendLocked(from)
		}
	}
	progress := false
	if raw[0] == kindFrameLow && !pr.delivered && len(body) >= subHeaderSize {
		// Contact with a stream already in flight: this side has no receive
		// state for the numbering (it restarted, or lost the state), but the
		// sender is mid-stream. Records below the frame's first sequence were
		// retired against our predecessor and will never be retransmitted —
		// waiting for them would wedge the stream forever — so adopt the
		// stream at its current position. Adoption is trusted only on frames
		// the sender marked as leading with its lowest outstanding sequence:
		// a fresh frame can outrace the retransmission of an older backlog
		// (the flusher does not wait for the retransmit tick), and adopting
		// at such a frame would silently discard the backlog. Once anything
		// of this epoch has been delivered the stream is established and the
		// gap-fill machinery owns ordering.
		if first := binary.BigEndian.Uint64(body[0:8]); first > pr.nextExpected {
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
	// in — the backend gave the frame to the receiver (netback contract) —
	// and only a fragmented one is copied together, in a buffer its first
	// (full) fragment sizes for the common two.
	accept := func(flags byte, payload []byte) {
		pr.nextExpected++
		pr.delivered = true
		switch {
		case flags&flagLastFragment == 0:
			if pr.assembling == nil {
				pr.assembling = make([]byte, 0, 2*len(payload))
			}
			pr.assembling = append(pr.assembling, payload...)
		case len(pr.assembling) == 0:
			complete = append(complete, payload)
		default:
			complete = append(complete, append(pr.assembling, payload...))
			pr.assembling = nil
		}
	}
	for len(body) >= subHeaderSize {
		seq := binary.BigEndian.Uint64(body[0:8])
		flags := body[8]
		payloadLen := int(binary.BigEndian.Uint32(body[9:13]))
		if len(body) < subHeaderSize+payloadLen {
			break // corrupt tail; drop the rest of the frame
		}
		payload := body[subHeaderSize : subHeaderSize+payloadLen]
		body = body[subHeaderSize+payloadLen:]

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

	// Ack policy: immediately in the unbatched ablation, otherwise via a
	// short timer that a reverse-direction data frame can beat (piggybacking).
	if pr.ackOwed {
		if t.cfg.DisableBatching {
			pr.ackOwed = false
			t.queueAckLocked(from, pr, pr.epoch, pr.nextExpected-1)
		} else if !pr.ackTimerSet {
			pr.ackTimerSet = true
			if pr.ackTimer == nil {
				pr.ackTimer = time.AfterFunc(t.cfg.AckDelay, func() { t.ackTimerFire(from) })
			} else {
				pr.ackTimer.Reset(t.cfg.AckDelay)
			}
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

// resetSendLocked restarts the outgoing stream to a peer after the peer is
// known to have lost its receive state (site restart): queued and unacked
// records are dropped and the numbering begins again at 1 under a bumped
// epoch, so stale frames of the old numbering can never be confused with the
// new stream. Caller holds t.mu.
func (t *Transport) resetSendLocked(to SiteID) {
	ps, ok := t.sends[to]
	if !ok {
		return
	}
	ps.epoch++
	ps.nextSeq, ps.base, ps.sentUpTo = 1, 1, 0
	ps.window, ps.head = nil, 0
}

// ackTimerFire sends the delayed dedicated ack unless a data frame has
// already piggybacked it.
func (t *Transport) ackTimerFire(from SiteID) {
	t.mu.Lock()
	pr, ok := t.recvs[from]
	if !ok || t.closed {
		if ok {
			pr.ackTimerSet = false
		}
		t.mu.Unlock()
		return
	}
	pr.ackTimerSet = false
	owed := pr.ackOwed
	pr.ackOwed = false
	epoch, cum := pr.epoch, pr.nextExpected-1
	t.mu.Unlock()
	if owed {
		t.sendAck(from, epoch, cum)
	}
}

// queueAckLocked hands a dedicated ack to the peer's ack-sender goroutine
// instead of transmitting it from the receive loop. The receive loop must
// never block on a network send: with per-fragment framing under flood, a
// receive loop stuck on a full reverse link while the peer's receive loop
// waits symmetrically on the opposite pair is a distributed buffer deadlock
// (observed as a multi-minute hang of the unbatched ablation benchmark).
// Cumulative acks are monotonic, so the one-slot mailbox keeps only the
// newest — under backlog stale acks are superseded, never reordered.
// Caller holds t.mu.
func (t *Transport) queueAckLocked(to SiteID, pr *peerRecv, epoch, cum uint64) {
	if t.closed {
		// A frame can still arrive between Close and the endpoint detaching;
		// starting the ack sender now would race wg.Add against Close's
		// wg.Wait, and the peer no longer needs the ack.
		return
	}
	if !pr.ackStarted {
		pr.ackStarted = true
		pr.ackCh = make(chan ackNote, 1)
		t.wg.Add(1)
		go t.runAckSender(to, pr.ackCh)
	}
	for {
		select {
		case pr.ackCh <- ackNote{epoch, cum}:
			return
		default:
		}
		select {
		case <-pr.ackCh: // drop the superseded ack
		default:
		}
	}
}

// runAckSender transmits one peer's dedicated acks from its mailbox.
func (t *Transport) runAckSender(to SiteID, ch chan ackNote) {
	defer t.wg.Done()
	for {
		select {
		case <-t.done:
			return
		case a := <-ch:
			t.sendAck(to, a.epoch, a.cum)
		}
	}
}

// sendAck transmits a dedicated cumulative-ack frame for one stream epoch.
func (t *Transport) sendAck(to SiteID, epoch, cumSeq uint64) {
	var pkt [ackSize]byte
	pkt[0] = kindAck
	binary.BigEndian.PutUint64(pkt[1:9], epoch)
	binary.BigEndian.PutUint64(pkt[9:17], cumSeq)
	t.mu.Lock()
	t.stats.AcksSent++
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return
	}
	_ = t.ep.Send(to, pkt[:])
}
