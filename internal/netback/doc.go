// Package netback defines the backend-neutral network abstraction the
// transport layer is written against: a Network fabric that sites attach to
// and the per-site Endpoint that sends and receives datagram-style packets.
//
// Two implementations exist. The simulated LAN (internal/simnet) is the
// deterministic substrate for tests and paper-calibrated benchmarks; the
// real TCP backend (internal/tcpnet) carries the same packets over
// length-prefixed frames on kernel sockets. The reliable transport
// (internal/transport) — fragmentation, batch coalescing, piggybacked acks,
// epoch-qualified streams — is written once against this package and works
// unchanged over either.
//
// The contract a backend must provide is deliberately weak, because the
// transport above supplies reliability itself:
//
//   - Send is best-effort: a packet may be silently lost (a cut link, a
//     dropped TCP connection). It must not be corrupted or truncated.
//   - Packets between one ordered pair of sites that ARE delivered arrive
//     in submission order (per-link FIFO). Losing a prefix or a middle run
//     is fine; reordering is not. The transport's sequence numbers, its
//     cumulative acks, and its mid-stream adoption heuristic for restarted
//     receivers all lean on this.
//   - Delivery may block briefly for backpressure but must unblock when
//     the endpoint or the fabric closes.
//
// Partition testing needs links that can be cut: Faults is the one fault
// injector, a value both implementations embed, so the simulated and the
// real wire sever, heal and report link transitions identically.
package netback
