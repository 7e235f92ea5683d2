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
// the latency knee between 1 KB and 10 KB messages in Figure 2).
//
// Two hot-path optimisations keep protocol overhead off the wire, in the
// spirit of the piggybacking and buffering tricks Section 7 credits for
// ISIS running near raw-datagram speed:
//
//   - Packet coalescing: fragments queued for the same destination site are
//     batched into a single simnet frame (up to MaxPacket) by a per-peer
//     flusher goroutine. Under backpressure — while one frame is being
//     transmitted, more Sends arrive — subsequent fragments share frames,
//     amortising the per-packet send cost without adding latency when the
//     link is idle. Config.DisableBatching (one fragment per frame) is the
//     ablation baseline.
//
//   - Piggybacked acks: every outgoing data frame carries the cumulative
//     acknowledgement for the reverse direction, so bidirectional traffic
//     needs no dedicated ack packets. A short ack timer (Config.AckDelay)
//     sends a pure ack only when no reverse traffic shows up in time.
//
// The data path copies a message once on each side of the wire. Send keeps
// the caller's bytes by reference, in a sequence-indexed send window, until
// their ack arrives (an ack retires a prefix of the window and touches nothing
// else); a fan-out is one buffer in N windows. Sub-headers are written as
// records are copied into a frame, built in one reusable buffer per peer
// flusher — the backend is done with it when Send returns — and a received
// single-fragment message reaches the handler as a sub-slice of the frame it
// arrived in, which the backend handed to the receiver; only fragmented
// messages are copied together. Each window record remembers when it was last
// transmitted, and the retransmission sweep resends only records whose ack is
// at least RetransmitInterval overdue.
//
// Sequence numbers are qualified by a stream epoch so that a site restart
// (new incarnation, sequence numbers starting over at 1) is not mistaken
// for duplicate traffic, and so that stale acks from a previous incarnation
// cannot retire records of the current one. An epoch's high 32 bits carry
// the sending site's incarnation and the low 32 bits a per-peer reset
// counter, making epochs monotonic across restarts and stream resets: a
// frame with a higher epoch than previously seen starts a fresh stream (the
// old receive state is discarded — whatever was in flight died with the
// crashed incarnation, exactly the loss model of a site crash), and a frame
// with a lower epoch is a straggler from a dead incarnation and is dropped.
//
// Wire format (all integers big endian). A simnet packet is one frame:
//
//	pure ack frame:
//	    byte 0      kindAck
//	    bytes 1-8   epoch of the data stream being acknowledged
//	    bytes 9-16  cumulative ack: highest sequence delivered in order
//
//	data frame:
//	    byte 0      kindFrame, or kindFrameLow when the first record is the
//	                sender's lowest outstanding sequence
//	    bytes 1-8   sender's stream epoch for this link
//	    bytes 9-16  piggybacked ack: epoch of the reverse data stream
//	    bytes 17-24 piggybacked cumulative ack (0: nothing received yet)
//	    repeated sub-packet record:
//	        bytes 0-7    sequence number
//	        byte  8      flags (bit0: last fragment of its message)
//	        bytes 9-12   fragment length
//	        bytes 13..   fragment payload
package transport
