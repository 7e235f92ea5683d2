package events

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
)

// Kind classifies an operational event.
type Kind uint8

// Event kinds, grouped by the protocol layer that emits them.
const (
	// KindNone is the zero Kind; it is never published.
	KindNone Kind = iota

	// ViewInstalled marks a new membership view taking effect at a site
	// (the GBCAST commit, or the initial view when a group is created).
	ViewInstalled
	// ViewCommitted marks the coordinator completing the two-phase GBCAST
	// for a membership change (emitted once, at the coordinator).
	ViewCommitted

	// PrimaryLost marks a group's local copy losing primaryness (it was
	// wedged into a non-primary partition).
	PrimaryLost
	// PrimaryResumed marks a group's local copy becoming primary again
	// (after a merge or an in-place resume).
	PrimaryResumed
	// PartitionWedge marks a gbNonPrimary notice wedging the local copy
	// read-only under the primary-partition rule.
	PartitionWedge

	// MergeStart marks the beginning of a partition merge for a group.
	MergeStart
	// MergePark marks a merge attempt parking after repeated failures
	// (it will be retried when a site recovers).
	MergePark
	// MergeRetry marks a parked merge being retried.
	MergeRetry
	// MergeLand marks a merge completing: the minority copy has rejoined
	// the primary partition.
	MergeLand

	// FlushBegin marks a member site wedging for a GBCAST flush.
	FlushBegin
	// FlushComplete marks the flush ending: the view is installed and
	// held-back traffic is released.
	FlushComplete

	// Takeover marks a surviving member forcing a view change past
	// unresponsive peers after a coordinator failure.
	Takeover

	// SiteDown marks the failure detector declaring a site faulty.
	SiteDown
	// SiteUp marks the failure detector observing a site (re)appear.
	SiteUp
	// SiteRestart marks a site being restarted with a new incarnation.
	SiteRestart

	// LinkDown marks the network backend reporting a link cut.
	LinkDown
	// LinkUp marks the network backend reporting a link heal.
	LinkUp

	numKinds // sentinel; keep last
)

var kindNames = [...]string{
	KindNone:       "none",
	ViewInstalled:  "view-installed",
	ViewCommitted:  "view-committed",
	PrimaryLost:    "primary-lost",
	PrimaryResumed: "primary-resumed",
	PartitionWedge: "partition-wedge",
	MergeStart:     "merge-start",
	MergePark:      "merge-park",
	MergeRetry:     "merge-retry",
	MergeLand:      "merge-land",
	FlushBegin:     "flush-begin",
	FlushComplete:  "flush-complete",
	Takeover:       "takeover",
	SiteDown:       "site-down",
	SiteUp:         "site-up",
	SiteRestart:    "site-restart",
	LinkDown:       "link-down",
	LinkUp:         "link-up",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one operational event. Seq increases by one per event published
// on a bus, so a subscriber can detect dropped events; Site is the site the
// event was observed at, which for cluster-wide streams disambiguates the
// same protocol step seen from several sites.
type Event struct {
	Seq    uint64       // per-bus sequence number, starting at 1
	Time   time.Time    // wall-clock emission time
	Site   addr.SiteID  // site the event was observed at
	Kind   Kind         // what happened
	Group  addr.Address // group concerned, if any
	View   core.ViewID  // view id concerned, if any
	Peer   addr.SiteID  // other site concerned (takeover target, link peer, ...)
	Msg    core.MsgID   // multicast concerned, if any
	Detail string       // free-form human-readable context
}

// String renders the event compactly for traces and dumps.
func (e Event) String() string {
	s := fmt.Sprintf("#%d site%d %s", e.Seq, e.Site, e.Kind)
	if !e.Group.IsNil() {
		s += fmt.Sprintf(" %s", e.Group)
	}
	if e.View != 0 {
		s += fmt.Sprintf(" view=%d", e.View)
	}
	if e.Peer != 0 {
		s += fmt.Sprintf(" peer=site%d", e.Peer)
	}
	if !e.Msg.IsZero() {
		s += fmt.Sprintf(" msg=%s", e.Msg)
	}
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// Filter selects a subset of the stream. The zero Filter matches everything.
type Filter struct {
	// Kinds restricts the stream to the listed kinds; empty means all.
	Kinds []Kind
	// Group restricts the stream to events about one group (events that
	// carry no group, such as SiteDown, are excluded). The zero Address
	// disables the restriction.
	Group addr.Address
}

func (f Filter) match(e Event) bool {
	if !f.Group.IsNil() && e.Group.Base() != f.Group.Base() {
		return false
	}
	if len(f.Kinds) == 0 {
		return true
	}
	for _, k := range f.Kinds {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// Stats summarises a bus's activity: how many events of each kind were
// published and how many were dropped at slow subscribers.
type Stats struct {
	Published uint64          // total events published
	Dropped   uint64          // total events dropped across all subscribers
	ByKind    map[Kind]uint64 // per-kind publish counts (only non-zero kinds)
}

// DefaultQueue is the subscriber queue length used when Subscribe is called
// with a non-positive buffer size.
const DefaultQueue = 256

type subscriber struct {
	filter  Filter
	ch      chan Event
	dropped uint64
	closed  bool
}

// Bus fans events out to subscribers. Publishing never blocks: a subscriber
// whose queue is full loses the event and its drop counter is incremented.
// The zero Bus is not usable; call NewBus.
type Bus struct {
	site addr.SiteID

	mu     sync.Mutex
	seq    uint64
	closed bool
	subs   map[int]*subscriber
	nextID int
	byKind [numKinds]uint64
	drops  uint64
}

// NewBus returns an empty bus whose events are stamped with the given site.
func NewBus(site addr.SiteID) *Bus {
	return &Bus{site: site, subs: make(map[int]*subscriber)}
}

// Publish stamps the event with the bus's site, the next sequence number and
// the current time, then offers it to every matching subscriber without
// blocking. It is safe to call from protocol goroutines holding no bus state.
func (b *Bus) Publish(e Event) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.seq++
	e.Seq = b.seq
	e.Site = b.site
	e.Time = time.Now()
	if int(e.Kind) < len(b.byKind) {
		b.byKind[e.Kind]++
	}
	for _, s := range b.subs {
		if s.closed || !s.filter.match(e) {
			continue
		}
		select {
		case s.ch <- e:
		default:
			s.dropped++
			b.drops++
		}
	}
	b.mu.Unlock()
}

// Subscribe registers a new subscriber with a bounded queue of the given
// length (DefaultQueue if buf <= 0). It returns the event channel and a
// cancel function; cancel closes the channel after the subscriber is
// removed, so a range over the channel terminates. Cancel is idempotent.
func (b *Bus) Subscribe(f Filter, buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = DefaultQueue
	}
	s := &subscriber{filter: f, ch: make(chan Event, buf)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		close(s.ch)
		return s.ch, func() {}
	}
	id := b.nextID
	b.nextID++
	b.subs[id] = s
	b.mu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			mine := !s.closed // Close may already have closed the channel
			if mine {
				s.closed = true
				delete(b.subs, id)
			}
			b.mu.Unlock()
			if mine {
				close(s.ch)
			}
		})
	}
	return s.ch, cancel
}

// Dropped returns the number of events dropped across all subscribers since
// the bus was created (including subscribers that have since cancelled).
func (b *Bus) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.drops
}

// Stats returns a snapshot of the bus's publish and drop counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := Stats{Published: b.seq, Dropped: b.drops, ByKind: make(map[Kind]uint64)}
	for k, n := range b.byKind {
		if n > 0 {
			st.ByKind[Kind(k)] = n
		}
	}
	return st
}

// Close shuts the bus down: every subscriber channel is closed and later
// Publish calls are ignored. Close is idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := b.subs
	b.subs = make(map[int]*subscriber)
	b.mu.Unlock()
	for _, s := range subs {
		if !s.closed {
			s.closed = true
			close(s.ch)
		}
	}
}

// Counters tallies protocol activity at one site. It is event-derived in
// spirit — every increment corresponds to a protocol step the event stream
// can also report — and is aggregated across sites by the public API. A
// multicast is counted at the site that stamps and sends it, when it is sent:
// a member's at its own site, a non-member's at the site that relays it — not
// at the sender's, and whether or not the relay's acknowledgement gets back.
type Counters struct {
	CBCASTs       uint64 // causal multicasts sent
	ABCASTs       uint64 // total-order multicasts initiated
	GBCASTs       uint64 // global multicasts / view changes initiated
	PointToPoints uint64 // point-to-point packets sent
	Delivered     uint64 // messages delivered to local processes
	ViewChanges   uint64 // views installed
}

// Add accumulates o into c (used when aggregating per-site counters).
func (c *Counters) Add(o Counters) {
	c.CBCASTs += o.CBCASTs
	c.ABCASTs += o.ABCASTs
	c.GBCASTs += o.GBCASTs
	c.PointToPoints += o.PointToPoints
	c.Delivered += o.Delivered
	c.ViewChanges += o.ViewChanges
}
