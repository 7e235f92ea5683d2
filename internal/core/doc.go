// Package core contains the virtual-synchrony kernel of the reproduction:
// group views (membership lists ranked by age), message identifiers, and the
// pure ordering state machines of Section 3.1 of the paper: the causal queue
// CBCAST runs on, and the two-phase priority queue of the paper's ABCAST,
// which only the benchmark still times (internal/protos orders ABCAST by the
// sequence number the view's oldest member site gives it). The
// distributed wiring of these state machines — who sends what packet to whom
// — lives in internal/protos; this package is deliberately free of I/O so
// that the ordering logic can be tested exhaustively in isolation.
package core
