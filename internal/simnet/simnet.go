package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/netback"
)

// SiteID aliases the address package's site identifier.
type SiteID = addr.SiteID

// Config holds the physical parameters of the simulated LAN.
type Config struct {
	// IntraSiteDelay is the one-way delay for a packet whose source and
	// destination are the same site (client <-> local protos traffic).
	IntraSiteDelay time.Duration
	// InterSiteDelay is the one-way propagation plus protocol-stack delay
	// for a packet between two different sites.
	InterSiteDelay time.Duration
	// BytesPerSecond is the inter-site link bandwidth; 0 means infinite.
	// The transmission time len/BytesPerSecond is added to the delay.
	BytesPerSecond int64
	// MaxPacket is the largest payload a single packet may carry. Larger
	// messages must be fragmented by the transport. Zero means unlimited.
	MaxPacket int
	// LossRate is the probability in [0,1) that an inter-site packet is
	// silently dropped. Intra-site packets are never lost.
	LossRate float64
	// SendCPU is the CPU time charged to (and spent by) the sending site
	// for each packet submitted.
	SendCPU time.Duration
	// RecvCPU is the CPU time charged to the receiving site for each
	// packet delivered.
	RecvCPU time.Duration
	// Seed seeds the loss-model random source, making loss reproducible.
	Seed int64
	// QueueLen is the capacity of each endpoint's receive channel.
	QueueLen int
}

// PaperConfig returns parameters calibrated to the 1987 testbed: 10 µs
// intra-site hops, 16 ms inter-site packets, a 10 Mbit/s Ethernet
// (1.25 MB/s), 4 KB fragmentation, no loss.
func PaperConfig() Config {
	return Config{
		IntraSiteDelay: 10 * time.Microsecond,
		InterSiteDelay: 16 * time.Millisecond,
		BytesPerSecond: 1_250_000,
		MaxPacket:      4096,
		LossRate:       0,
		SendCPU:        300 * time.Microsecond,
		RecvCPU:        300 * time.Microsecond,
		QueueLen:       4096,
	}
}

// FastConfig returns near-zero delays, suitable for unit tests where only
// ordering and correctness matter.
func FastConfig() Config {
	return Config{
		IntraSiteDelay: 0,
		InterSiteDelay: 0,
		BytesPerSecond: 0,
		MaxPacket:      4096,
		LossRate:       0,
		SendCPU:        0,
		RecvCPU:        0,
		QueueLen:       4096,
	}
}

// LossyConfig returns FastConfig with the given inter-site loss rate, for
// fault-injection tests of the reliable transport.
func LossyConfig(rate float64, seed int64) Config {
	c := FastConfig()
	c.LossRate = rate
	c.Seed = seed
	return c
}

// Packet is one datagram travelling between sites. It aliases the
// backend-neutral packet type, so a simnet endpoint satisfies
// netback.Endpoint directly.
type Packet = netback.Packet

// Errors returned by Send.
var (
	ErrTooLarge = errors.New("simnet: payload exceeds MaxPacket")
	ErrClosed   = errors.New("simnet: endpoint closed")
)

// Stats aggregates network activity counters. All byte counts refer to
// packet payloads.
type Stats struct {
	PacketsSent      uint64
	PacketsDelivered uint64
	PacketsDropped   uint64 // lost by the loss model
	PacketsBlocked   uint64 // dropped by an injected partition
	PacketsDiscarded uint64 // destination detached before delivery
	BytesSent        uint64
	BytesDelivered   uint64
	IntraSitePackets uint64
	InterSitePackets uint64
}

// Network is the simulated LAN. It is safe for concurrent use.
type Network struct {
	cfg Config

	// Injected partitions and their watchers. A packet submitted on a
	// severed pair is silently dropped at send, exactly as if the wire were
	// unplugged; packets already in flight still arrive. The reliable
	// transport retransmits across the outage, so Heal lets traffic resume.
	netback.Faults

	mu        sync.Mutex
	endpoints map[SiteID]*Endpoint
	links     map[linkKey]*link         // per-directed-link FIFO delivery queues
	paused    map[linkKey]chan struct{} // injected pauses (packets held in order)
	rng       *rand.Rand
	slab      netback.Slab // every packet's copy is carved from it
	stats     Stats
	busy      map[SiteID]time.Duration
	tracer    Tracer
	closed    bool
	done      chan struct{} // closed when the network shuts down
}

type linkKey struct{ from, to SiteID }

// link is a directed FIFO queue between two sites. A dedicated goroutine
// drains it, sleeping until each packet's delivery time, which guarantees
// per-link FIFO delivery regardless of timer scheduling.
type link struct {
	key linkKey
	ch  chan scheduled
}

type scheduled struct {
	pkt       Packet
	deliverAt time.Time
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	return &Network{
		cfg:       cfg,
		endpoints: make(map[SiteID]*Endpoint),
		links:     make(map[linkKey]*link),
		paused:    make(map[linkKey]chan struct{}),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		slab:      netback.NewSlab(max(cfg.MaxPacket, 4096)),
		busy:      make(map[SiteID]time.Duration),
		done:      make(chan struct{}),
	}
}

// SetTracer installs an event tracer (may be nil). Tests read frames off the
// wire with it, Figure 3's critical path among them.
func (n *Network) SetTracer(t Tracer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tracer = t
}

// AddSite attaches a site to the network and returns its endpoint. Attaching
// an already-attached site replaces the previous endpoint (the old one stops
// receiving), which models a site recovering with a new incarnation.
func (n *Network) AddSite(id SiteID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if old, ok := n.endpoints[id]; ok {
		old.markClosed()
	}
	ep := &Endpoint{
		id:   id,
		net:  n,
		recv: make(chan Packet, n.cfg.QueueLen),
		done: make(chan struct{}),
	}
	n.endpoints[id] = ep
	return ep
}

// Attach connects a site to the network as a netback.Network fabric would:
// it is AddSite under the backend-neutral signature. The epoch is ignored —
// the simulated network needs no connection handshake, and incarnation
// handling lives in the transport's stream epochs.
func (n *Network) Attach(id SiteID, epoch uint64) (netback.Endpoint, error) {
	_ = epoch
	return n.AddSite(id), nil
}

// Profile returns the network's physical parameters in backend-neutral
// form, for deriving the transport configuration.
func (n *Network) Profile() netback.Profile {
	return netback.Profile{MaxPacket: n.cfg.MaxPacket, Delay: n.cfg.InterSiteDelay}
}

// Sites returns the ids of currently attached sites.
func (n *Network) Sites() []SiteID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]SiteID, 0, len(n.endpoints))
	for id := range n.endpoints {
		out = append(out, id)
	}
	return out
}

// Stats returns a snapshot of the activity counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the activity counters and per-site busy time.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{}
	n.busy = make(map[SiteID]time.Duration)
}

// BusyTime returns the cumulative CPU time charged to the given site.
func (n *Network) BusyTime(id SiteID) time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.busy[id]
}

// Close detaches all sites and stops the per-link delivery goroutines.
// Packets still queued on links are silently dropped.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	for id, ep := range n.endpoints {
		ep.markClosed()
		delete(n.endpoints, id)
	}
	n.closed = true
	close(n.done)
}

// ---------------------------------------------------------------------------
// Controllable link faults. The paper's fault model assumes the LAN never
// partitions; these controls deliberately step outside it so tests can drive
// the protocols through coordinator crashes, lost flushes, and recovery.

// LinkEvent reports an injected partition being installed (Up=false) or
// healed (Up=true) on an undirected link. It aliases the backend-neutral
// event type.
type LinkEvent = netback.LinkEvent

// The simulated LAN is both a link watcher and a fault injector (through the
// embedded netback.Faults); partition tests written against the netback
// capabilities run on it unchanged.
var (
	_ netback.FaultInjector = (*Network)(nil)
	_ netback.LinkWatcher   = (*Network)(nil)
)

// PauseLink suspends delivery on the directed link from → to: packets
// already in flight and packets sent while paused are held, in order, and
// delivered when the link resumes. Unlike Partition nothing is lost — pause
// models a congested or slow link rather than a cut one, and is the tool
// for freezing a protocol at a chosen point (e.g. a coordinator's commit).
func (n *Network) PauseLink(from, to SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.paused[linkKey{from, to}]; !ok {
		n.paused[linkKey{from, to}] = make(chan struct{})
	}
}

// ResumeLink releases a paused directed link; held packets deliver in order.
func (n *Network) ResumeLink(from, to SiteID) {
	n.mu.Lock()
	gate, ok := n.paused[linkKey{from, to}]
	if ok {
		delete(n.paused, linkKey{from, to})
	}
	n.mu.Unlock()
	if ok {
		close(gate)
	}
}

// ResumeAll releases every paused link.
func (n *Network) ResumeAll() {
	n.mu.Lock()
	gates := make([]chan struct{}, 0, len(n.paused))
	for _, g := range n.paused {
		gates = append(gates, g)
	}
	n.paused = make(map[linkKey]chan struct{})
	n.mu.Unlock()
	for _, g := range gates {
		close(g)
	}
}

// waitLinkResumed blocks while the directed link is paused. Returns early
// when the network shuts down.
func (n *Network) waitLinkResumed(key linkKey) {
	for {
		n.mu.Lock()
		gate := n.paused[key]
		n.mu.Unlock()
		if gate == nil {
			return
		}
		select {
		case <-gate:
		case <-n.done:
			return
		}
	}
}

// delayFor computes the one-way delay for a packet of the given size.
func (n *Network) delayFor(from, to SiteID, size int) time.Duration {
	if from == to {
		return n.cfg.IntraSiteDelay
	}
	d := n.cfg.InterSiteDelay
	if n.cfg.BytesPerSecond > 0 {
		d += time.Duration(float64(size) / float64(n.cfg.BytesPerSecond) * float64(time.Second))
	}
	return d
}

// send performs the actual transmission for an endpoint; a send blocked on a
// full link gives up when the network or the sending endpoint (detached) closes.
func (n *Network) send(from SiteID, to SiteID, payload []byte, detached <-chan struct{}) error {
	if n.cfg.MaxPacket > 0 && len(payload) > n.cfg.MaxPacket {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(payload), n.cfg.MaxPacket)
	}

	interSite := from != to
	delay := n.delayFor(from, to, len(payload))

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	n.stats.PacketsSent++
	n.stats.BytesSent += uint64(len(payload))
	if interSite {
		n.stats.InterSitePackets++
	} else {
		n.stats.IntraSitePackets++
	}
	n.busy[from] += n.cfg.SendCPU

	// Injected partition: the wire is cut, the packet vanishes.
	if n.Blocked(from, to) {
		n.stats.PacketsBlocked++
		tr := n.tracer
		n.mu.Unlock()
		trace(tr, Event{Kind: EventDrop, From: from, To: to, Size: len(payload), When: time.Now()})
		return nil
	}

	// Loss model: only inter-site packets are lost.
	if interSite && n.cfg.LossRate > 0 && n.rng.Float64() < n.cfg.LossRate {
		n.stats.PacketsDropped++
		tr := n.tracer
		n.mu.Unlock()
		trace(tr, Event{Kind: EventDrop, From: from, To: to, Size: len(payload), When: time.Now()})
		return nil
	}

	// FIFO per directed link: a single goroutine drains each link's queue
	// in submission order, so a packet is never overtaken by a later one.
	key := linkKey{from, to}
	lk, ok := n.links[key]
	if !ok {
		lk = &link{key: key, ch: make(chan scheduled, 4096)}
		n.links[key] = lk
		go n.runLink(lk)
	}
	now := time.Now()
	tr := n.tracer
	cp := n.slab.Take(len(payload))
	n.mu.Unlock()

	trace(tr, Event{Kind: EventSend, From: from, To: to, Size: len(payload), When: now, Latency: delay})

	// Copy the payload so callers may reuse their buffer.
	copy(cp, payload)
	s := scheduled{
		pkt:       Packet{From: from, To: to, Payload: cp},
		deliverAt: now.Add(delay),
	}
	select {
	case lk.ch <- s:
		return nil
	case <-n.done:
		return ErrClosed
	case <-detached:
		return ErrClosed
	}
}

// runLink drains one directed link's queue, delivering each packet no
// earlier than its scheduled time and never ahead of an earlier packet. The
// link's one timer is re-armed for every packet that must wait.
func (n *Network) runLink(lk *link) {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		select {
		case s := <-lk.ch:
			if wait := time.Until(s.deliverAt); wait > 0 {
				timer.Reset(wait)
				select {
				case <-timer.C:
				case <-n.done:
					return
				}
			}
			n.waitLinkResumed(lk.key)
			n.deliver(s.pkt)
		case <-n.done:
			return
		}
	}
}

// deliver hands a packet to its destination if still attached.
func (n *Network) deliver(pkt Packet) {
	n.mu.Lock()
	ep, ok := n.endpoints[pkt.To]
	if !ok || ep.isClosed() {
		n.stats.PacketsDiscarded++
		tr := n.tracer
		n.mu.Unlock()
		trace(tr, Event{Kind: EventDiscard, From: pkt.From, To: pkt.To, Size: len(pkt.Payload), When: time.Now()})
		return
	}
	n.stats.PacketsDelivered++
	n.stats.BytesDelivered += uint64(len(pkt.Payload))
	n.busy[pkt.To] += n.cfg.RecvCPU
	tr := n.tracer
	n.mu.Unlock()

	trace(tr, Event{Kind: EventDeliver, From: pkt.From, To: pkt.To, Size: len(pkt.Payload), When: time.Now()})

	// Block rather than drop if the receiver is slow: the reliable
	// transport above depends on eventual delivery of non-lost packets.
	// Blocking must happen here, on the link goroutine, so a later packet
	// can never overtake this one — delivering from a spawned goroutine
	// would break the per-link FIFO guarantee the transport's sequence
	// numbers rely on (and leak the goroutine if the endpoint detaches).
	select {
	case ep.recv <- pkt:
	case <-ep.done:
		// The endpoint detached while the delivery was blocked: roll the
		// optimistic delivery accounting back so the packet is counted as
		// discarded, not as both delivered and discarded.
		n.mu.Lock()
		n.stats.PacketsDelivered--
		n.stats.BytesDelivered -= uint64(len(pkt.Payload))
		n.busy[pkt.To] -= n.cfg.RecvCPU
		n.stats.PacketsDiscarded++
		n.mu.Unlock()
	case <-n.done:
	}
}

// Endpoint is one site's attachment to the network.
type Endpoint struct {
	id   SiteID
	net  *Network
	recv chan Packet
	done chan struct{} // closed when the endpoint detaches

	mu     sync.Mutex
	closed bool
}

// Site returns the endpoint's site id.
func (e *Endpoint) Site() SiteID { return e.id }

// Recv returns the channel on which delivered packets arrive.
func (e *Endpoint) Recv() <-chan Packet { return e.recv }

// Send transmits payload to the destination site. Send spends the
// configured per-packet CPU cost on the caller's goroutine, which is how the
// simulator models sender-side processing load (Section 7's CPU-utilisation
// observations). A Send blocked on a full link returns ErrClosed once the
// endpoint detaches.
func (e *Endpoint) Send(to SiteID, payload []byte) error {
	if e.isClosed() {
		return ErrClosed
	}
	if cpu := e.net.cfg.SendCPU; cpu > 0 {
		time.Sleep(cpu)
	}
	return e.net.send(e.id, to, payload, e.done)
}

// Close detaches the endpoint from the network. Only this endpoint is
// detached: if the site id has already been re-attached (a restart replaced
// this endpoint), the successor endpoint keeps receiving.
func (e *Endpoint) Close() {
	e.net.mu.Lock()
	if cur, ok := e.net.endpoints[e.id]; ok && cur == e {
		delete(e.net.endpoints, e.id)
	}
	e.net.mu.Unlock()
	e.markClosed()
}

func (e *Endpoint) markClosed() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.done)
	}
	e.mu.Unlock()
}

func (e *Endpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}
