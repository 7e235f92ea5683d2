// Package events is the toolkit's operational event stream: a typed,
// site-local record of the protocol decisions that an operator (or a fault
// injector) needs to see as they happen — view installs, primary loss and
// resumption, partition wedges, merges, flushes, ABCAST fences and
// re-solicitations, coordinator takeovers, and site up/down transitions.
//
// Each protocols daemon owns one Bus. Emitters publish without blocking:
// every subscriber has a bounded queue, and when a subscriber falls behind
// its oldest pending events are counted as dropped rather than stalling the
// protocol path. Subscribers therefore see a gap-free prefix of the stream
// up to the first drop; the per-event Seq field makes gaps detectable.
//
// The package also defines Counters, the per-site tally of protocol
// activity, so that both the daemon and the public API share one
// observability vocabulary.
package events
