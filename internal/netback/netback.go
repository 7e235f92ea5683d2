package netback

import (
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/addr"
)

// SiteID aliases the address package's site identifier.
type SiteID = addr.SiteID

// Packet is one datagram travelling between sites.
type Packet struct {
	From    SiteID
	To      SiteID
	Payload []byte
}

// Profile describes the physical characteristics of a fabric that the
// transport layer needs to parameterize itself: the largest payload one
// packet may carry and a rough one-way inter-site delay (zero for a fabric
// with no modelled latency), from which the retransmission interval is
// derived.
type Profile struct {
	// MaxPacket is the largest payload a single Send may carry; zero means
	// the fabric imposes no limit.
	MaxPacket int
	// Delay is the nominal one-way inter-site delay.
	Delay time.Duration
}

// Endpoint is one site's attachment to a network fabric. Implementations
// must be safe for concurrent use.
type Endpoint interface {
	// Site returns the attached site's identifier.
	Site() SiteID
	// Send transmits payload to the destination site, best-effort: the
	// packet may be lost but not corrupted or reordered relative to other
	// packets on the same directed link. Callers may reuse the payload
	// buffer after Send returns.
	Send(to SiteID, payload []byte) error
	// Recv returns the channel on which delivered packets arrive. A
	// delivered Packet's payload is the receiver's range: the backend never
	// reuses it, and the receiver may write it. Its capacity ends at its
	// length, because packets may share a backing array, so the receiver
	// never grows it in place.
	Recv() <-chan Packet
	// Close detaches the endpoint from the fabric; in-flight packets
	// toward it may be discarded, exactly as when a site crashes.
	Close()
}

// Slab carves packet buffers out of shared backing arrays, so a packet costs
// an allocation only when a backing array runs out. A backing array is never
// reused: every range it gave out stays its taker's, and keeps at most the
// one array alive. A Slab is not safe for concurrent use: its owner carves
// under its own lock.
type Slab struct {
	size int    // length of a backing array
	free []byte // the uncarved tail of the current one
}

// NewSlab returns a slab whose backing arrays are size bytes long; a fabric
// passes its MaxPacket.
func NewSlab(size int) Slab { return Slab{size: size} }

// Take returns a zeroed range of n bytes whose capacity ends at its length.
// A request over a quarter of the slab gets its own exact allocation.
func (s *Slab) Take(n int) []byte {
	if n > s.size/4 {
		return make([]byte, n)
	}
	if len(s.free) < n {
		s.free = make([]byte, s.size)
	}
	b := s.free[:n:n]
	s.free = s.free[n:]
	return b
}

// Network is a fabric sites attach to. Implementations must be safe for
// concurrent use.
type Network interface {
	// Attach connects a site to the fabric and returns its endpoint.
	// Attaching a site id that is already attached replaces the previous
	// endpoint (which stops receiving) — that models a site recovering
	// with a new incarnation. The epoch must increase across restarts of
	// the same site id; backends that perform connection handshakes (TCP)
	// use it to tell a restarted peer's fresh connections from stragglers
	// of dead incarnations. Backends without connections may ignore it.
	Attach(id SiteID, epoch uint64) (Endpoint, error)
	// Sites returns the ids of the sites currently known to the fabric
	// (attached, for fabrics with dynamic membership).
	Sites() []SiteID
	// Profile returns the fabric's physical parameters.
	Profile() Profile
	// Close shuts the fabric down, detaching every endpoint.
	Close()
}

// LinkEvent reports a fabric-level link transition on the undirected (A, B)
// pair: Up=false when the link goes down (an injected partition), Up=true
// when it heals. Only injected faults (Faults) produce them; real networks
// surface outages through loss and the failure detector instead.
type LinkEvent struct {
	A, B SiteID
	Up   bool
}

// LinkWatcher is the optional capability of a Network to report link
// transitions. The protocols daemon type-asserts its fabric against this
// interface and, when present, publishes each transition on its event stream;
// recovery itself is observed by the failure detector, from the first frame
// that crosses the healed link.
type LinkWatcher interface {
	// WatchLinks registers a callback invoked on every link transition and
	// returns a function that unregisters it.
	WatchLinks(cb func(LinkEvent)) (cancel func())
}

// FaultInjector is the optional capability of a Network to sever and restore
// individual site-to-site links, for partition testing. Both in-tree
// backends have it by embedding Faults, so tests written against
// Fabric().(FaultInjector) run unchanged on either. A blocked pair drops
// traffic in both directions; the reliable transport's retransmissions
// recover whatever was in flight once the pair heals.
type FaultInjector interface {
	// Partition severs the undirected link between two sites.
	Partition(a, b SiteID)
	// Heal restores the undirected link between two sites.
	Heal(a, b SiteID)
	// HealAll restores every severed link.
	HealAll()
}

// Faults is the fault injector both in-tree fabrics embed: the set of
// severed undirected site pairs and the watchers told when a pair goes down
// or comes back. It is a FaultInjector and a LinkWatcher; the fabric asks
// Blocked on its packet path and decides for itself where a blocked packet
// is lost (the simulated LAN at send, the TCP fabric at both ends of the
// socket). A transition is reported once per undirected pair, lower site id
// first; severing a severed pair or healing a healthy one is not a
// transition. The zero value is ready for use.
type Faults struct {
	mu        sync.Mutex
	severed   map[[2]SiteID]bool
	watchers  map[int]func(LinkEvent)
	nextWatch int
}

// pairOf normalizes an undirected site pair.
func pairOf(a, b SiteID) [2]SiteID {
	if a > b {
		a, b = b, a
	}
	return [2]SiteID{a, b}
}

// Partition severs the undirected link between two sites.
func (f *Faults) Partition(a, b SiteID) { f.set(a, b, true) }

// Heal restores the undirected link between two sites.
func (f *Faults) Heal(a, b SiteID) { f.set(a, b, false) }

// HealAll restores every severed link.
func (f *Faults) HealAll() {
	f.mu.Lock()
	pairs := slices.Collect(maps.Keys(f.severed))
	f.mu.Unlock()
	for _, k := range pairs {
		f.set(k[0], k[1], false)
	}
}

// set moves one pair to the given state and, if that changed anything,
// tells the watchers. Callbacks run outside the lock.
func (f *Faults) set(a, b SiteID, down bool) {
	k := pairOf(a, b)
	f.mu.Lock()
	if down == f.severed[k] {
		f.mu.Unlock()
		return
	}
	if down {
		if f.severed == nil {
			f.severed = make(map[[2]SiteID]bool)
		}
		f.severed[k] = true
	} else {
		delete(f.severed, k)
	}
	cbs := slices.Collect(maps.Values(f.watchers))
	f.mu.Unlock()
	ev := LinkEvent{A: k[0], B: k[1], Up: !down}
	for _, cb := range cbs {
		cb(ev)
	}
}

// Blocked reports whether the link between two sites is severed.
func (f *Faults) Blocked(a, b SiteID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.severed[pairOf(a, b)]
}

// WatchLinks registers a callback invoked on every link transition and
// returns a function that unregisters it. Callbacks must be quick.
func (f *Faults) WatchLinks(cb func(LinkEvent)) (cancel func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextWatch++
	id := f.nextWatch
	if f.watchers == nil {
		f.watchers = make(map[int]func(LinkEvent))
	}
	f.watchers[id] = cb
	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		delete(f.watchers, id)
	}
}
