package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netback"
)

// SiteID aliases the backend-neutral site identifier.
type SiteID = netback.SiteID

// Wire constants of the connection handshake: every connection opens with
// both sides sending a fixed-size hello (magic, version, site id, epoch)
// before any frame.
const (
	helloMagic   = 0x49534953 // "ISIS"
	wireVersion  = 1
	helloSize    = 4 + 1 + 8 + 8
	frameHdrSize = 4
)

// Config holds the TCP backend parameters. The zero value of every field
// selects a sensible default.
type Config struct {
	// MaxPacket is the largest payload one Send may carry (and the frame
	// size cap enforced by receivers). Defaults to 16384.
	MaxPacket int
	// ListenHost is the interface listeners bind to (port is always
	// ephemeral). Defaults to 127.0.0.1 — the loopback deployment the
	// in-process fabric is built for.
	ListenHost string
}

func (c Config) withDefaults() Config {
	if c.MaxPacket <= 0 {
		c.MaxPacket = 16384
	}
	if c.ListenHost == "" {
		c.ListenHost = "127.0.0.1"
	}
	return c
}

const (
	// dialTimeout bounds connection establishment and the handshake.
	dialTimeout = 2 * time.Second
	// redialBackoff is the minimum gap between dial attempts to an
	// unreachable peer; frames queued in between are dropped (the
	// transport retransmits).
	redialBackoff = 50 * time.Millisecond
	// writeTimeout bounds one frame write; a peer that stops reading long
	// enough to fill the kernel buffers costs a dropped connection, not a
	// wedged sender.
	writeTimeout = 10 * time.Second
	// recvQueueLen is the capacity of each endpoint's receive channel.
	recvQueueLen = 4096
	// sendQueueLen is the capacity of each per-peer send queue; when it
	// overflows the newest frame is dropped.
	sendQueueLen = 1024
)

// Errors returned by the backend.
var (
	ErrClosed      = errors.New("tcpnet: endpoint closed")
	ErrUnknownSite = errors.New("tcpnet: destination site not attached")
	ErrTooLarge    = errors.New("tcpnet: payload exceeds MaxPacket")
)

// Stats counts backend activity across all endpoints of a fabric.
type Stats struct {
	FramesSent    uint64 // frames handed to a socket
	FramesDropped uint64 // frames dropped (no connection, full queue, write error)
	FramesRecv    uint64 // frames delivered to receive channels
	BytesSent     uint64
	Dials         uint64 // outbound connections established (handshake done)
	Accepts       uint64 // inbound connections established (handshake done)
	Refused       uint64 // connections refused (stale epoch or lost tie-break)
}

// The TCP fabric supports the same injected-partition capabilities as the
// simulated LAN (through the embedded netback.Faults), so partition tests
// run against either backend.
var (
	_ netback.FaultInjector = (*Network)(nil)
	_ netback.LinkWatcher   = (*Network)(nil)
)

// Network is the in-process fabric for TCP-loopback deployments: a shared
// address book that maps attached site ids to their listeners, so sites in
// one process discover each other exactly as they would from a static
// cluster manifest. It implements netback.Network over real kernel sockets.
type Network struct {
	cfg Config

	// Injected partitions and their watchers. Frames between a severed pair
	// are dropped at both the sender (never queued) and the receiver
	// (connections established before the cut keep carrying frames, which
	// are discarded on arrival). The TCP connections themselves are left
	// alone — a real partition does not reset established sockets promptly
	// either; the failure detector, not the socket layer, is what notices
	// the outage.
	netback.Faults

	mu     sync.Mutex
	addrs  map[SiteID]string
	eps    map[SiteID]*Endpoint
	closed bool

	framesSent    atomic.Uint64
	framesDropped atomic.Uint64
	framesRecv    atomic.Uint64
	bytesSent     atomic.Uint64
	dials         atomic.Uint64
	accepts       atomic.Uint64
	refused       atomic.Uint64
}

// New creates an empty TCP fabric.
func New(cfg Config) *Network {
	return &Network{
		cfg:   cfg.withDefaults(),
		addrs: make(map[SiteID]string),
		eps:   make(map[SiteID]*Endpoint),
	}
}

// Stats returns a snapshot of the fabric's activity counters.
func (n *Network) Stats() Stats {
	return Stats{
		FramesSent:    n.framesSent.Load(),
		FramesDropped: n.framesDropped.Load(),
		FramesRecv:    n.framesRecv.Load(),
		BytesSent:     n.bytesSent.Load(),
		Dials:         n.dials.Load(),
		Accepts:       n.accepts.Load(),
		Refused:       n.refused.Load(),
	}
}

// Attach connects a site to the fabric: it opens a listener on an ephemeral
// port, registers it in the shared address book, and returns the endpoint.
// Re-attaching an id replaces the previous endpoint (a restart with a new
// incarnation); the epoch must increase across such restarts, and is what
// the connection handshake uses to refuse stragglers of dead incarnations.
func (n *Network) Attach(id SiteID, epoch uint64) (netback.Endpoint, error) {
	ln, err := net.Listen("tcp", net.JoinHostPort(n.cfg.ListenHost, "0"))
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen for site %d: %w", id, err)
	}
	ep := &Endpoint{
		net:   n,
		id:    id,
		epoch: epoch,
		ln:    ln,
		recv:  make(chan netback.Packet, recvQueueLen),
		done:  make(chan struct{}),
		peers: make(map[SiteID]*peer),
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		return nil, ErrClosed
	}
	old := n.eps[id]
	n.eps[id] = ep
	n.addrs[id] = ln.Addr().String()
	n.mu.Unlock()
	if old != nil {
		old.Close()
	}
	ep.wg.Add(1)
	go ep.runAccept()
	return ep, nil
}

// Sites returns the ids of currently attached sites, in ascending order.
func (n *Network) Sites() []SiteID {
	n.mu.Lock()
	out := make([]SiteID, 0, len(n.addrs))
	for id := range n.addrs {
		out = append(out, id)
	}
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Profile returns the fabric's physical parameters: the frame size cap and
// no modelled delay (the wire is as fast as the kernel makes it).
func (n *Network) Profile() netback.Profile {
	return netback.Profile{MaxPacket: n.cfg.MaxPacket}
}

// Close detaches every endpoint and shuts the fabric down.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.eps = make(map[SiteID]*Endpoint)
	n.addrs = make(map[SiteID]string)
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}

// addrOf resolves a site to its current listener address.
func (n *Network) addrOf(id SiteID) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, ok := n.addrs[id]
	return a, ok
}

// detach removes an endpoint from the fabric if it is still the current
// holder of its site id (a replacement installed by a later Attach stays).
func (n *Network) detach(ep *Endpoint) {
	n.mu.Lock()
	if cur, ok := n.eps[ep.id]; ok && cur == ep {
		delete(n.eps, ep.id)
		delete(n.addrs, ep.id)
	}
	n.mu.Unlock()
}

// peer is the connection state toward one remote site: at most one
// established duplex connection, a bounded send queue drained by a dedicated
// sender goroutine, and the highest handshake epoch ever seen from the site
// (connections presenting a lower one are stragglers and refused).
type peer struct {
	id         SiteID
	sendQ      chan []byte
	conn       net.Conn // established connection, nil while down
	connDialer SiteID   // which side dialed it (tie-breaking)
	maxEpoch   uint64
	lastFail   time.Time // last failed dial, for backoff
}

// Endpoint is one site's attachment to the TCP fabric.
type Endpoint struct {
	net   *Network
	id    SiteID
	epoch uint64
	ln    net.Listener
	recv  chan netback.Packet
	done  chan struct{}

	mu     sync.Mutex
	peers  map[SiteID]*peer
	closed bool
	wg     sync.WaitGroup
}

// Site returns the endpoint's site id.
func (e *Endpoint) Site() SiteID { return e.id }

// Recv returns the channel on which delivered packets arrive.
func (e *Endpoint) Recv() <-chan netback.Packet { return e.recv }

// Send queues payload for transmission to the destination site. Delivery is
// best-effort: if the peer is unreachable, the connection dies mid-flight,
// or the send queue overflows, the frame is dropped and the reliable
// transport's retransmission recovers it. Frames that are delivered arrive
// in submission order (one TCP connection per peer).
func (e *Endpoint) Send(to SiteID, payload []byte) error {
	if len(payload) > e.net.cfg.MaxPacket {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(payload), e.net.cfg.MaxPacket)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if to == e.id {
		// Intra-site traffic short-circuits the socket layer.
		cp := make([]byte, len(payload))
		copy(cp, payload)
		e.mu.Unlock()
		select {
		case e.recv <- netback.Packet{From: e.id, To: e.id, Payload: cp}:
			e.net.framesRecv.Add(1)
		case <-e.done:
		}
		return nil
	}
	p, ok := e.peers[to]
	if !ok {
		p = &peer{id: to, sendQ: make(chan []byte, sendQueueLen)}
		e.peers[to] = p
		e.wg.Add(1)
		go e.runSender(p)
	}
	e.mu.Unlock()

	if e.net.Blocked(e.id, to) {
		// Injected partition: drop at the source, like a lost datagram.
		e.net.framesDropped.Add(1)
		return nil
	}

	// Frame = 4-byte big-endian length + payload, built here so the caller
	// may reuse its buffer immediately.
	frame := make([]byte, frameHdrSize+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[frameHdrSize:], payload)
	select {
	case p.sendQ <- frame:
	default:
		e.net.framesDropped.Add(1) // backpressure overflow: transport retransmits
	}
	return nil
}

// Close detaches the endpoint: the listener stops accepting, every
// connection closes, and the background goroutines exit.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.done)
	conns := make([]net.Conn, 0, len(e.peers))
	for _, p := range e.peers {
		if p.conn != nil {
			conns = append(conns, p.conn)
			p.conn = nil
		}
	}
	e.mu.Unlock()
	e.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	e.net.detach(e)
	e.wg.Wait()
}

// runAccept accepts inbound connections until the listener closes.
func (e *Endpoint) runAccept() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.wg.Add(1)
		go e.acceptHandshake(c)
	}
}

// acceptHandshake completes the hello exchange on an inbound connection and
// installs it for the peer it identifies.
func (e *Endpoint) acceptHandshake(c net.Conn) {
	defer e.wg.Done()
	peerID, peerEpoch, err := e.handshake(c)
	if err != nil || peerID == e.id {
		c.Close()
		return
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		c.Close()
		return
	}
	p, ok := e.peers[peerID]
	if !ok {
		p = &peer{id: peerID, sendQ: make(chan []byte, sendQueueLen)}
		e.peers[peerID] = p
		e.wg.Add(1)
		go e.runSender(p)
	}
	installed := e.installConnLocked(p, c, peerEpoch, peerID)
	e.mu.Unlock()
	if installed {
		e.net.accepts.Add(1)
	}
}

// handshake performs the symmetric hello exchange on a fresh connection and
// returns the remote site id and epoch. It also disables Nagle's algorithm:
// the transport's own batch coalescing decides frame boundaries, and a
// delayed partial write under Nagle would serialize the ack path.
func (e *Endpoint) handshake(c net.Conn) (SiteID, uint64, error) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	deadline := time.Now().Add(dialTimeout)
	_ = c.SetDeadline(deadline)
	var hello [helloSize]byte
	binary.BigEndian.PutUint32(hello[0:4], helloMagic)
	hello[4] = wireVersion
	binary.BigEndian.PutUint64(hello[5:13], uint64(e.id))
	binary.BigEndian.PutUint64(hello[13:21], e.epoch)
	if _, err := c.Write(hello[:]); err != nil {
		return 0, 0, err
	}
	var in [helloSize]byte
	if _, err := io.ReadFull(c, in[:]); err != nil {
		return 0, 0, err
	}
	if binary.BigEndian.Uint32(in[0:4]) != helloMagic || in[4] != wireVersion {
		return 0, 0, errors.New("tcpnet: bad hello")
	}
	_ = c.SetDeadline(time.Time{})
	return SiteID(binary.BigEndian.Uint64(in[5:13])), binary.BigEndian.Uint64(in[13:21]), nil
}

// installConnLocked decides the fate of a freshly handshaken connection
// against the peer's current state and installs it if it wins. The rules,
// applied in order, keep both ends deterministic:
//
//   - a connection presenting an epoch lower than the highest already seen
//     from this site is a straggler of a dead incarnation: refused;
//   - a higher epoch announces a restarted peer: it replaces whatever
//     connection is established;
//   - at equal epochs (a simultaneous dial race), the connection dialed by
//     the lower-numbered site wins — both ends evaluate the same rule on
//     the same pair of connections and settle on the same socket. A re-dial
//     from the same direction replaces its predecessor (which is dead or
//     dying, or the peer would not have dialed again).
//
// Caller holds e.mu. Returns whether the connection was installed.
func (e *Endpoint) installConnLocked(p *peer, c net.Conn, epoch uint64, dialer SiteID) bool {
	if epoch < p.maxEpoch {
		e.net.refused.Add(1)
		c.Close()
		return false
	}
	if epoch == p.maxEpoch && p.conn != nil && dialer > p.connDialer {
		e.net.refused.Add(1)
		c.Close()
		return false
	}
	if epoch > p.maxEpoch {
		p.maxEpoch = epoch
	}
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = c
	p.connDialer = dialer
	e.wg.Add(1)
	go e.runReader(p, c)
	return true
}

// runSender drains one peer's send queue onto its connection, dialing on
// demand. A frame that cannot be sent is dropped: reliability is the
// transport's job, and blocking here would stall the retransmission loop
// for every other peer.
func (e *Endpoint) runSender(p *peer) {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		case frame := <-p.sendQ:
			c := e.connFor(p)
			if c == nil {
				e.net.framesDropped.Add(1)
				continue
			}
			if !e.writeFrame(p, c, frame) {
				// The established connection may have been dead for a
				// while (half-open): retry once on a fresh dial so the
				// first frame after an outage is not systematically lost.
				if c = e.connFor(p); c == nil || !e.writeFrame(p, c, frame) {
					e.net.framesDropped.Add(1)
					continue
				}
			}
			e.net.framesSent.Add(1)
			e.net.bytesSent.Add(uint64(len(frame) - frameHdrSize))
		}
	}
}

// writeFrame writes one frame, dropping the connection on error or write
// timeout. Only the peer's sender goroutine writes frames, so writes are
// never interleaved.
func (e *Endpoint) writeFrame(p *peer, c net.Conn, frame []byte) bool {
	_ = c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := c.Write(frame); err != nil {
		e.forgetConn(p, c)
		c.Close()
		return false
	}
	return true
}

// connFor returns the peer's established connection, dialing one if none
// exists and the redial backoff has elapsed.
func (e *Endpoint) connFor(p *peer) net.Conn {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	if p.conn != nil {
		c := p.conn
		e.mu.Unlock()
		return c
	}
	if time.Since(p.lastFail) < redialBackoff {
		e.mu.Unlock()
		return nil
	}
	e.mu.Unlock()
	return e.dialPeer(p)
}

// dialPeer establishes a fresh connection to the peer: resolve its listener
// from the fabric's address book (at dial time, so a restarted peer's new
// port is picked up), connect, handshake, and run the install rules.
func (e *Endpoint) dialPeer(p *peer) net.Conn {
	fail := func() net.Conn {
		e.mu.Lock()
		p.lastFail = time.Now()
		e.mu.Unlock()
		return nil
	}
	addr, ok := e.net.addrOf(p.id)
	if !ok {
		return fail()
	}
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return fail()
	}
	peerID, peerEpoch, err := e.handshake(c)
	if err != nil || peerID != p.id {
		c.Close()
		return fail()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		c.Close()
		return nil
	}
	installed := e.installConnLocked(p, c, peerEpoch, e.id)
	cur := p.conn
	e.mu.Unlock()
	if installed {
		e.net.dials.Add(1)
	}
	// Whether our dial won the tie-break or an accepted connection beat it,
	// the peer's current connection is what sends should use.
	return cur
}

// forgetConn clears a dead connection from the peer state, leaving any
// replacement that was installed concurrently untouched.
func (e *Endpoint) forgetConn(p *peer, c net.Conn) {
	e.mu.Lock()
	if p.conn == c {
		p.conn = nil
	}
	e.mu.Unlock()
}

// runReader delivers one connection's inbound frames until it dies. Frames
// are length-checked against MaxPacket (with handshake slack) so a corrupt
// or hostile length prefix cannot demand an unbounded allocation.
func (e *Endpoint) runReader(p *peer, c net.Conn) {
	defer e.wg.Done()
	br := bufio.NewReaderSize(c, 64<<10)
	var hdr [frameHdrSize]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n > e.net.cfg.MaxPacket {
			break
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			break
		}
		if e.net.Blocked(e.id, p.id) {
			// Injected partition: frames already in flight on a connection
			// established before the cut are discarded on arrival.
			e.net.framesDropped.Add(1)
			continue
		}
		select {
		case e.recv <- netback.Packet{From: p.id, To: e.id, Payload: buf}:
			e.net.framesRecv.Add(1)
		case <-e.done:
			c.Close()
			e.forgetConn(p, c)
			return
		}
	}
	c.Close()
	e.forgetConn(p, c)
}
