// Package transport provides reliable, FIFO, fragmenting site-to-site
// message channels on top of the lossy datagram service of a
// internal/netback fabric.
//
// The paper's system model (Section 2.1) tolerates message loss but not
// partitioning; the ISIS protocols process therefore assumes an underlying
// facility that eventually delivers every message sent between two
// operational sites, in the order sent. This package supplies that facility:
// per-destination sequence numbers, cumulative acknowledgements,
// timer-driven retransmission, and fragmentation of large messages into
// MaxPacket-sized packets (the paper's 4 KB fragmentation, responsible for
// the latency knee between 1 KB and 10 KB messages in Figure 2). The flusher
// cuts only a message longer than a frame: its head fills the room left in
// the frame it starts in, and the rest goes on in the next.
//
// Two hot-path optimisations keep protocol overhead off the wire, in the
// spirit of the piggybacking and buffering tricks Section 7 credits for
// ISIS running near raw-datagram speed:
//
//   - Packet coalescing: Send queues whole messages, and the destination's
//     flusher goroutine batches them into frames of up to MaxPacket. While a
//     frame is on the wire, more Sends arrive and share the next one; an idle
//     link adds no latency. Config.DisableBatching (one record per frame) is
//     the ablation baseline.
//
//   - Piggybacked acks: every outgoing data frame carries the cumulative
//     acknowledgement for the reverse direction, so bidirectional traffic
//     needs no dedicated ack packets. An ack that falls due waits
//     Config.AckDelay (by default a quarter of RetransmitInterval) for a
//     reverse frame to carry it, and goes as a pure ack only after that; the
//     wait starts afresh for each ack owed after a frame carried the last.
//     A held ack still reaches the sender before the record it acknowledges
//     is RetransmitInterval old, on any link of up to RI/4 one way.
//
// One sender per peer: the peer's flusher goroutine is the only code that
// hands the backend a frame for that peer, so frames to one peer leave in the
// order it builds them and a full link stalls that peer alone. Send, the
// retransmission ticker, the ack timer and Poll only wake it, and the receive
// path never sends — a receive loop that blocked on its full reverse link
// while the peer's blocked on the opposite one would be a distributed buffer
// deadlock. A pass of the flusher sends, one frame per lock hold, the records
// whose ack is overdue, then records cut from the messages queued since, then
// a dedicated ack if one is owed that no frame carried and it is due (at
// once under Config.DisableBatching), or if Poll asked for a keepalive. A
// record is numbered as it first goes into a frame, so the send window is
// exactly the records sent and not yet acknowledged. A peer that only
// receives gets a flusher too, for its acks.
//
// Liveness rides on the streams and adds nothing to them: any frame from a
// peer, a bare ack included, is a heartbeat. Poll, called by the failure
// detector once an interval, reports every peer and whether it was heard from
// since the last poll, and has a peer that was sent nothing meanwhile sent a
// bare ack — unsequenced, never retransmitted, idempotent. Forget drops a dead
// peer's window and starts a new stream epoch to it, so a site that is gone
// costs neither memory nor retransmissions.
//
// The data path copies a message once on each side of the wire. Send keeps
// the caller's bytes by reference, in the peer's queue and then in its send
// window, until an ack retires them; a fan-out is one buffer in N queues.
// Record heads are written as records are copied into a frame, built in the
// flusher's one reusable buffer (the backend is done with it when Send
// returns), and a single-record message reaches the handler as a sub-slice of
// the frame it arrived in; only fragmented messages are copied together. The
// flusher resends only records whose ack is RetransmitInterval overdue.
//
// Sequence numbers are qualified by a stream epoch so that a site restart
// (new incarnation, sequence numbers starting over at 1) is not mistaken
// for duplicate traffic, and so that stale acks from a previous incarnation
// cannot retire records of the current one. An epoch's high 32 bits carry
// the sending site's incarnation and the low 32 bits a per-peer reset
// counter, making epochs monotonic across restarts and stream resets: a
// frame with a higher epoch than previously seen starts a fresh stream (what
// was in flight died with the old one, as in a site crash), and a frame with
// a lower epoch is a straggler from a dead incarnation and is dropped. A
// receiver that adopts a stream in flight drops the records it starts with
// that continue a message, up to the message's last: its head is lost.
//
// Wire format. A backend packet is one frame, and golden_test.go pins both
// kinds byte for byte:
//
//	pure ack frame (fixed 17 bytes, integers big endian):
//	    byte 0      kindAck (2)
//	    bytes 1-8   epoch of the data stream being acknowledged
//	    bytes 9-16  cumulative ack: highest sequence delivered in order
//
//	data frame (every integer a uvarint):
//	    kind byte   kindFrame (5), or kindFrameLow (6) when the first record
//	                is the sender's lowest outstanding sequence
//	    incarnation and reset count: the sender's stream epoch for this link
//	    incarnation and reset count: the piggybacked ack's epoch, that of
//	                the reverse data stream
//	    piggybacked cumulative ack (0: nothing received yet)
//	    first       the sequence number of the frame's first record
//	    repeated record:
//	        length<<2 | flags (bit0: last of its message; bit1: not its first)
//	        the fragment's bytes
//
// Record i of a frame carries sequence first+i: the flusher numbers records
// consecutively as it fills a frame. A record is sized against the head a
// frame led by it with no ack would have, so it can always be resent, its
// ack left to a later frame. Kinds 3 and 4, an earlier layout, are dropped.
package transport
