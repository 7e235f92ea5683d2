package protos

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/fdetect"
	"repro/internal/msg"
	"repro/internal/netback"
	"repro/internal/transport"
)

// DeliverFunc receives an application message for a local process. The
// message carries the toolkit system fields (sender, group, view id,
// protocol, entry). Delivery callbacks for one process are invoked
// sequentially, in delivery order.
type DeliverFunc func(entry addr.EntryID, m *msg.Message)

// ViewFunc receives a membership change notification for a group the
// process belongs to. It is invoked in order relative to message
// deliveries, which is what makes the ranking trick of Section 3.2 safe.
type ViewFunc func(view core.View)

// Config parameterizes a Daemon.
type Config struct {
	// Site is this daemon's site identifier.
	Site addr.SiteID
	// Incarnation distinguishes restarts of the same site.
	Incarnation addr.Incarnation
	// Network is the fabric the site attaches to: the simulated LAN
	// (*simnet.Network) or the TCP-loopback backend (*tcpnet.Network).
	Network netback.Network
	// Transport optionally overrides the transport configuration; the zero
	// value derives it from the network configuration.
	Transport transport.Config
	// Detector optionally overrides the failure-detector configuration;
	// the zero value uses fdetect.DefaultConfig.
	Detector fdetect.Config
	// CallTimeout bounds internal request/response interactions (lookups,
	// coordinator requests, proposal collection). Defaults to 5 s.
	CallTimeout time.Duration
	// ResolicitAfter is how long a member may hold an uncommitted ABCAST at
	// the head of its total-order queue before it re-solicits the commit
	// record from the initiator (rotating to other member sites if the
	// initiator does not answer). Zero selects CallTimeout. A straggling
	// proposal can therefore no longer block later committed deliveries
	// until the next flush.
	ResolicitAfter time.Duration
	// DisableHeartbeats turns off the failure detector's periodic traffic;
	// used by benchmarks that want quiet links.
	DisableHeartbeats bool
}

// Counters tallies protocol activity; the Table 1 harness reads them before
// and after each toolkit call to report the multicast cost of the call. It is
// defined in the events package so the observability layer and the protocol
// layer share one vocabulary.
type Counters = events.Counters

// Errors returned by daemon operations.
var (
	ErrClosed        = errors.New("protos: daemon closed")
	ErrUnknownProc   = errors.New("protos: unknown local process")
	ErrUnknownGroup  = errors.New("protos: unknown group")
	ErrNotMember     = errors.New("protos: process is not a member")
	ErrTimeout       = errors.New("protos: request timed out")
	ErrDeadProcess   = errors.New("protos: process has failed")
	ErrEmptyDest     = errors.New("protos: no destinations")
	ErrBadProtocol   = errors.New("protos: unsupported protocol for destination set")
	ErrGroupVanished = errors.New("protos: group has no members")
	ErrNonPrimary    = errors.New("protos: group is in a non-primary partition (read-only)")
)

// localProc is one client process registered at this site.
type localProc struct {
	addr        addr.Address
	deliver     DeliverFunc
	deliverView ViewFunc
	alive       bool
	nextSeq     uint64 // multicast sequence (msg ids)
	outstanding int    // ABCASTs initiated and not yet committed (for flush)

	// relayMu serializes this process's relayed CBCASTs across the
	// acknowledged exchange and guards relayed: per destination group, the
	// stamp of the last one acknowledged, which the next relay names as the
	// cast it must come after.
	relayMu sync.Mutex
	relayed map[addr.Address]relayStamp

	queue chan queued // per-process delivery queue, drained by one goroutine
}

// queued is one item of a process's delivery queue: the message m for entry (a
// data or reply delivery, which allocates nothing to queue), or a call fn (a
// view callback, a state block, a state capture).
type queued struct {
	entry addr.EntryID
	m     *msg.Message
	fn    func()
}

// run hands the item to the process.
func (q queued) run(p *localProc) {
	if q.fn != nil {
		q.fn()
	} else {
		p.deliver(q.entry, q.m)
	}
}

// memberState is the per-(group, local member) state: what is handed to the
// member, and when. The order is the copy's (groupState.causal, .total).
type memberState struct {
	proc *localProc

	// joinedView is the view in which this member entered the group at this
	// site. A GBCAST flush re-disseminates messages some member sites
	// missed, but a member that joined after a message was sent must not
	// receive it — its state-transfer cut already covers it (this matters
	// after a partition merge, when a freshly rejoined member's empty
	// recent-delivery set would otherwise read as "missed everything").
	joinedView core.ViewID

	awaitingState bool     // a joiner that has not yet received the group state
	held          []queued // deliveries deferred until the state arrives
	stateRecv     func(block []byte, last bool)
	stateProv     func() [][]byte

	// xferID identifies the state-transfer attempt the blocks in xferBuf
	// belong to (the view id the provider shipped under). Blocks buffer here
	// and reach the receiver only once the final block arrives, so a
	// transfer restarted from a new provider after the old one failed simply
	// discards the partial buffer instead of delivering duplicate blocks.
	xferID  uint64
	xferBuf [][]byte
}

// groupState is the per-group state kept at every site hosting members.
type groupState struct {
	view     core.View
	prevView core.View                     // the view this site held before the current one
	members  map[addr.Address]*memberState // local members only

	// The copy's one ordering state. The site runs CBCAST and ABCAST once on
	// behalf of every member it hosts and hands each released message to all
	// of them (deliverDataLocked): they see the same inputs under one lock and
	// a view installs for all of them at once, so a queue each would only
	// repeat this one. Re-disseminated messages go in through the same queues.
	causal *core.CausalQueue
	total  *core.TotalQueue

	// Straggler tracking for the re-solicitation watchdog: the uncommitted
	// message currently blocking the head of the copy's total-order queue,
	// when it started blocking, and how many re-solicitations have been sent
	// for it (used to rotate the target away from an unreachable initiator).
	blockedID    core.MsgID
	blockedSince time.Time
	resolicits   int

	// The copy's lifecycle (lifecycle.go). phase is written by Daemon.step
	// alone; parked is what the open flush holds back; flushDeadline is when
	// the flush now open counts as stale (the scan tick then feeds the copy
	// inWatchdog); mergeAttempt counts the merge attempts begun, so each can
	// tell whether it is still the latest.
	phase         phase
	parked        parked
	flushDeadline time.Time
	mergeAttempt  uint64

	// recent holds the last delivered data packets, which a flush
	// re-disseminates to members that missed them.
	recent core.BoundedLog[core.MsgID, recentEntry]

	// pendingXfer is the set of joiners whose requested state transfer has
	// not been confirmed complete (by their site's ptStateAck). Every member
	// site tracks it so that whichever site finds itself hosting the new
	// oldest member after a failure can re-trigger the transfer.
	pendingXfer map[addr.Address]bool

	// Coordinator-side state (only used while this site hosts the acting
	// coordinator).
	gbSeq   uint64
	gbBusy  bool
	gbQueue []*gbWork

	// marks is the site's record of which GBCAST request ids have been
	// settled here (requestmarks.go).
	marks requestMarks
}

// recentEntry is one delivered data packet, as the bytes it travelled as. For
// an ABCAST, prio is the final priority it was delivered at (0 otherwise): kept
// with the packet, so a flush report's Recent line can always name the final a
// delivered straggler must be completed at elsewhere (the daemon-global abDone
// record churns across groups and may have evicted it).
type recentEntry struct {
	raw  []byte
	prio uint64
}

const recentLimit = 256

// newGroupState makes a group copy. It stamps for whichever local member
// sends, so its causal queue has no rank of its own; one made for a view yet
// to be installed (no members) gets its clock at the install.
func newGroupState(view core.View) *groupState {
	return &groupState{
		view:    view,
		members: make(map[addr.Address]*memberState),
		causal:  core.NewCausalQueue(-1, view.Size()),
		total:   core.NewTotalQueue(0),
		recent:  core.NewBoundedLog[core.MsgID, recentEntry](recentLimit),
		marks:   newRequestMarks(),
	}
}

// abSendState is the initiator-side state of one ABCAST (phase 1 responses
// still outstanding).
type abSendState struct {
	id     core.MsgID
	group  addr.Address
	sender addr.Address
	// targets lists the remote member sites phase 1 and the commit go to; it
	// is fixed when the round is set up. waiting holds those that have not
	// proposed (or failed) yet.
	targets  []addr.SiteID
	waiting  []addr.SiteID
	maxPrio  uint64
	done     bool
	deadline time.Time // the scan tick completes a round still open at CallTimeout

	// packet is phase 1 as it was sent. Its attempt qualifies the
	// phase-1/proposal exchange: a GBCAST flush that fences this ABCAST behind
	// a view change restarts it with a higher attempt, and proposals stamped
	// with an older one are ignored so the final priority is always the
	// maximum over one coherent proposal round.
	packet *dataPacket
}

// abDoneLimit bounds the per-daemon memory of committed ABCAST final
// priorities kept for re-solicitation answers.
const abDoneLimit = 1024

// pendingJoin remembers the state-transfer receiver callback registered when
// a local process asked to join a group, so it can be attached to the member
// state once the view change that adds it is installed.
type pendingJoin struct {
	stateRecv func(block []byte, last bool)
}

// Daemon is the protocols process of one site.
type Daemon struct {
	cfg  Config
	site addr.SiteID
	gen  *addr.Generator
	net  netback.Network
	ep   netback.Endpoint
	tr   *transport.Transport
	det  *fdetect.Detector

	mu          sync.Mutex
	procs       map[addr.Address]*localProc
	groups      map[addr.Address]*groupState
	remoteViews map[addr.Address]core.View
	nameCache   map[string]addr.Address
	failedProcs map[addr.Address]bool
	suspected   map[addr.SiteID]bool
	calls       map[int64]pendingCall
	nextCall    int64
	nextReqID   int64
	pendingAb   map[core.MsgID]*abSendState
	abDone      core.BoundedLog[core.MsgID, uint64] // final priorities of applied ABCAST commits
	pendingJoin map[joinKey]pendingJoin
	reqSerial   map[addr.Address]*sync.Mutex

	// bus carries the operational event stream for this site; emitters
	// publish from protocol paths (often with d.mu held — the bus has its
	// own lock and never calls back into the daemon).
	bus *events.Bus

	// reqLog is the requester-side record of GBCAST request ids this daemon
	// minted: which group each went to and whether the call committed, is
	// still pending, or was given up on (timed out / errored with the
	// outcome unresolved). RequestOutcome consults it and, for given-up
	// ids, settles the outcome with a gbSeal round.
	reqLog core.BoundedLog[int64, reqRecord]

	// repairs (repairs.go) holds what must be tried again until it works:
	// members parked when a merge discarded the local group copy and their
	// rejoin then failed every retry.
	repairs repairs

	// flushEnd (on mu) is signalled whenever a group copy leaves its
	// flushing phase, and on Close: senders blocked by a flush wait on it
	// (settledGroupLocked).
	flushEnd sync.Cond

	counters Counters
	closed   bool

	unwatchLinks func()        // unregisters the heal-probe link watcher on Close
	stopScan     chan struct{} // closed by Close: stops the scan loop and fails calls still waiting

	wg sync.WaitGroup
}

// New creates and starts a daemon at the given site.
func New(cfg Config) (*Daemon, error) {
	if cfg.Network == nil {
		return nil, errors.New("protos: Config.Network is required")
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 5 * time.Second
	}
	if cfg.ResolicitAfter <= 0 {
		cfg.ResolicitAfter = cfg.CallTimeout
	}
	// Fill unset transport parameters from the network defaults while
	// keeping explicit overrides (the batching ablation sets only flags).
	trCfg := cfg.Transport
	trDef := transport.DefaultConfig(cfg.Network.Profile())
	if trCfg.MaxPacket == 0 {
		trCfg.MaxPacket = trDef.MaxPacket
	}
	if netMax := cfg.Network.Profile().MaxPacket; netMax > 0 && trCfg.MaxPacket > netMax {
		// A frame larger than the network accepts would fail asynchronously
		// in the transport's flusher, where no error can reach the sender;
		// clamp here, where the network's limit is known.
		trCfg.MaxPacket = netMax
	}
	if trCfg.RetransmitInterval == 0 {
		trCfg.RetransmitInterval = trDef.RetransmitInterval
	}
	if trCfg.Epoch == 0 {
		// Stream epochs derive from the incarnation so peers distinguish a
		// restarted site's fresh numbering from duplicate traffic.
		trCfg.Epoch = uint64(cfg.Incarnation) + 1
	}
	detCfg := cfg.Detector
	if detCfg.HeartbeatInterval == 0 {
		detCfg = fdetect.DefaultConfig()
	}

	d := &Daemon{
		cfg:         cfg,
		site:        cfg.Site,
		gen:         addr.NewGenerator(cfg.Site, cfg.Incarnation),
		net:         cfg.Network,
		procs:       make(map[addr.Address]*localProc),
		groups:      make(map[addr.Address]*groupState),
		remoteViews: make(map[addr.Address]core.View),
		nameCache:   make(map[string]addr.Address),
		failedProcs: make(map[addr.Address]bool),
		suspected:   make(map[addr.SiteID]bool),
		calls:       make(map[int64]pendingCall),
		pendingAb:   make(map[core.MsgID]*abSendState),
		abDone:      core.NewBoundedLog[core.MsgID, uint64](abDoneLimit),
		pendingJoin: make(map[joinKey]pendingJoin),
		reqSerial:   make(map[addr.Address]*sync.Mutex),
		bus:         events.NewBus(cfg.Site),
		reqLog:      core.NewBoundedLog[int64, reqRecord](reqLogLimit),
		stopScan:    make(chan struct{}),
	}
	d.flushEnd.L = &d.mu
	ep, err := cfg.Network.Attach(cfg.Site, trCfg.Epoch)
	if err != nil {
		return nil, err
	}
	d.ep = ep
	d.det = fdetect.New(cfg.Site, detCfg, d.sendHeartbeat, d.onDetectorEvent)
	// The transport's receive loop may hand over a packet at once (one already
	// on its way to a restarting site): it waits until the daemon is whole.
	whole := make(chan struct{})
	tr, err := transport.New(d.ep, trCfg, func(from addr.SiteID, raw []byte) {
		<-whole
		d.handleTransport(from, raw)
	})
	if err != nil {
		d.ep.Close()
		return nil, err
	}
	d.tr = tr
	close(whole)
	if !cfg.DisableHeartbeats {
		d.det.Start()
	}
	// A healed link is probed immediately with a heartbeat, so the peer's
	// failure detector observes the recovery — and triggers any pending
	// partition merge — without waiting for the next heartbeat round. Only
	// fabrics that can observe link transitions (the simulated LAN) offer
	// the capability; on a real wire recovery is heartbeat-driven.
	if lw, ok := cfg.Network.(netback.LinkWatcher); ok {
		d.unwatchLinks = lw.WatchLinks(func(ev netback.LinkEvent) {
			var peer addr.SiteID
			switch d.site {
			case ev.A:
				peer = ev.B
			case ev.B:
				peer = ev.A
			default:
				return
			}
			kind := events.LinkDown
			if ev.Up {
				kind = events.LinkUp
			}
			d.bus.Publish(events.Event{Kind: kind, Peer: peer})
			if !ev.Up {
				return
			}
			d.mu.Lock()
			closed := d.closed
			d.mu.Unlock()
			if !closed {
				d.sendHeartbeat(peer)
			}
		})
	}
	d.wg.Add(1)
	go d.runResolicitScan()
	return d, nil
}

// Site returns the daemon's site id.
func (d *Daemon) Site() addr.SiteID { return d.site }

// Counters returns a snapshot of the protocol counters.
func (d *Daemon) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counters
}

// Close stops the daemon, modelling a site crash: the transport and failure
// detector stop, and the site detaches from the network. Other sites will
// detect the crash by timeout.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	procs := make([]*localProc, 0, len(d.procs))
	for _, p := range d.procs {
		procs = append(procs, p)
	}
	for _, st := range d.pendingAb {
		d.retireAbcastLocked(st)
	}
	d.flushEnd.Broadcast()
	d.mu.Unlock()
	d.repairs.close()

	d.bus.Close()
	if d.unwatchLinks != nil {
		d.unwatchLinks()
	}
	if !d.cfg.DisableHeartbeats {
		d.det.Stop()
	}
	d.tr.Close()
	d.ep.Close()
	// Only now, with the site off the network: whatever the released waiters
	// do next cannot reach a peer as this site's dying words (a crashed
	// coordinator answers nobody; its requesters time out and fail over).
	close(d.stopScan)
	for _, p := range procs {
		close(p.queue)
	}
	d.wg.Wait()
}

// RegisterProcess creates a new local process and returns its address. The
// deliver callback receives application messages; the view callback (which
// may be nil) receives membership changes of the groups the process joins.
func (d *Daemon) RegisterProcess(deliver DeliverFunc, view ViewFunc) (addr.Address, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return addr.Nil, ErrClosed
	}
	a := d.gen.NextProcess()
	p := &localProc{
		addr:        a,
		deliver:     deliver,
		deliverView: view,
		alive:       true,
		relayed:     make(map[addr.Address]relayStamp),
		queue:       make(chan queued, 1024),
	}
	d.procs[a] = p
	d.wg.Add(1)
	go d.runProcQueue(p)
	return a, nil
}

// runProcQueue drains one process's delivery queue so that its callbacks run
// sequentially and in order.
func (d *Daemon) runProcQueue(p *localProc) {
	defer d.wg.Done()
	for q := range p.queue {
		q.run(p)
	}
}

// enqueue schedules a delivery for a process. Must be called with
// d.mu held (so that queue order equals delivery order; the daemon-closed
// check under the same lock also guarantees the queue channel is never
// written after Close has closed it).
func (d *Daemon) enqueue(p *localProc, q queued) {
	if !p.alive || d.closed {
		return
	}
	select {
	case p.queue <- q:
	default:
		// Queue overflow: fall back to a goroutine rather than dropping the
		// delivery; ordering may suffer under extreme overload but messages
		// are never lost.
		go q.run(p)
	}
}

// KillProcess simulates the crash of a local process: it stops receiving
// messages and is removed (by view changes) from every group it belonged
// to. The local monitoring mechanism detects process crashes immediately
// (Section 2.1), so unlike a site crash no timeout is involved.
func (d *Daemon) KillProcess(p addr.Address) error {
	d.mu.Lock()
	lp, ok := d.procs[p.Base()]
	if !ok {
		d.mu.Unlock()
		return ErrUnknownProc
	}
	if !lp.alive {
		d.mu.Unlock()
		return nil
	}
	lp.alive = false
	d.failedProcs[p.Base()] = true
	// Collect the groups the process belongs to.
	var affected []addr.Address
	for gid, gs := range d.groups {
		if _, isMember := gs.members[p.Base()]; isMember {
			affected = append(affected, gid)
		}
	}
	d.mu.Unlock()

	for _, gid := range affected {
		d.requestRemoval(gid, []addr.Address{p.Base()}, gbFail, false)
	}
	return nil
}

// Events subscribes to this site's operational event stream. The filter
// restricts the stream (the zero Filter matches everything); buf sizes the
// subscriber's bounded queue (<=0 selects events.DefaultQueue). The returned
// cancel unsubscribes and closes the channel; the channel also closes when
// the daemon shuts down.
func (d *Daemon) Events(f events.Filter, buf int) (<-chan events.Event, func()) {
	return d.bus.Subscribe(f, buf)
}

// EventStats reports the bus's publish and drop counters.
func (d *Daemon) EventStats() events.Stats { return d.bus.Stats() }

// AnnounceRestart publishes a SiteRestart event; the cluster harness calls it
// when a site comes back with a new incarnation.
func (d *Daemon) AnnounceRestart() {
	d.bus.Publish(events.Event{Kind: events.SiteRestart, Detail: fmt.Sprintf("incarnation %d", d.cfg.Incarnation)})
}

// ---------------------------------------------------------------------------
// Transport plumbing and call helper

// encodePacket builds the wire bytes of a daemon-to-daemon packet: the
// two-byte envelope followed by the body, marshalled straight into the one
// exactly sized buffer. Senders encode a packet once and fan the same bytes
// out to every destination site.
func encodePacket(pt byte, p *msg.Message) ([]byte, error) {
	raw := make([]byte, envelopeBytes, envelopeBytes+p.MarshaledSize())
	raw[0], raw[1] = wireVersion, pt
	return p.AppendMarshal(raw)
}

// sendRaw transmits pre-encoded packet bytes, which the transport keeps, to a site.
func (d *Daemon) sendRaw(to addr.SiteID, raw []byte) error {
	d.det.AddPeer(to)
	return d.tr.Send(to, raw)
}

// fanoutRaw ships the same encoded packet to every listed site except this
// one. Every destination's send window refers to the one slice until its ack
// arrives, so the caller gives it up: it is never written again.
func (d *Daemon) fanoutRaw(sites []addr.SiteID, raw []byte) {
	for _, s := range sites {
		if s == d.site {
			continue
		}
		_ = d.sendRaw(s, raw)
	}
}

// sendPacket encodes and transmits a daemon-to-daemon packet of the given
// type.
func (d *Daemon) sendPacket(to addr.SiteID, pt byte, p *msg.Message) error {
	raw, err := encodePacket(pt, p)
	if err != nil {
		return err
	}
	return d.sendRaw(to, raw)
}

// heartbeatRaw is the complete wire form of a heartbeat: envelope only, no
// body. The receiver identifies the peer from the transport's source site.
var heartbeatRaw = []byte{wireVersion, ptHeartbeat}

// sendHeartbeat is handed to the failure detector.
func (d *Daemon) sendHeartbeat(to addr.SiteID) {
	_ = d.sendRaw(to, heartbeatRaw)
}

// pendingCall is one request/response exchange awaiting its answer: where
// the answer is delivered, and the site it was asked of (so a failure of that
// site can abort the wait).
type pendingCall struct {
	ch   chan *msg.Message
	site addr.SiteID // 0: a broadcast question, answered by whoever can
}

// newCall registers a pending exchange with a site and returns its id and
// response channel.
func (d *Daemon) newCall(to addr.SiteID) (int64, chan *msg.Message) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextCall++
	id := d.nextCall
	// Deeper than the one answer a call gets: the answers to a broadcast
	// question (a lookup) queue here while the asker works through them. One
	// that finds the buffer full is dropped, as a lost packet would be.
	ch := make(chan *msg.Message, 8)
	d.calls[id] = pendingCall{ch: ch, site: to}
	return id, ch
}

// dropCall removes a pending call.
func (d *Daemon) dropCall(id int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.calls, id)
}

// newReqID mints a stable, globally unique GBCAST request id. The id
// travels with the request across coordinator fail-over re-submissions and
// with the resulting commit, so a request is executed at most once no
// matter how many coordinators handle it. The incarnation participates so
// that a restarted site's fresh counter can never collide with ids its
// previous incarnation already committed (a collision would make the
// commit-record dedupe swallow the restarted site's first requests).
func (d *Daemon) newReqID() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextReqID++
	return (int64(d.site)<<16|int64(d.cfg.Incarnation)&0xffff)<<32 | d.nextReqID&0xffffffff
}

// errSiteFailed aborts pending calls to a site the failure detector declared
// dead, as the fErr text of the injected response.
var errSiteFailed = errors.New("protos: site failed")

// failCallsTo aborts every pending call addressed to a site the failure
// detector has declared dead, so callers (coordinator requests, lookups)
// retry against a successor immediately instead of waiting out the call
// timeout.
func (d *Daemon) failCallsTo(s addr.SiteID) {
	d.mu.Lock()
	var chans []chan *msg.Message
	for _, c := range d.calls {
		if c.site == s {
			chans = append(chans, c.ch)
		}
	}
	d.mu.Unlock()
	for _, ch := range chans {
		m := msg.New()
		m.PutString(fErr, errSiteFailed.Error())
		select {
		case ch <- m:
		default:
		}
	}
}

// respond delivers a response to a pending call, if it still exists.
func (d *Daemon) respond(callID int64, m *msg.Message) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.calls[callID]; ok {
		select {
		case c.ch <- m:
		default:
		}
	}
}

// call sends a request to a site, its call id stamped into it, and waits for
// the response or a timeout.
func (d *Daemon) call(to addr.SiteID, pt byte, req *msg.Message) (*msg.Message, error) {
	id, ch := d.newCall(to)
	defer d.dropCall(id)
	req.PutInt(fCall, id)
	if err := d.sendPacket(to, pt, req); err != nil {
		return nil, err
	}
	return d.await(ch)
}

// await waits for the response to a registered call already sent, or a timeout.
func (d *Daemon) await(ch chan *msg.Message) (*msg.Message, error) {
	select {
	case resp := <-ch:
		if err := respError(resp); err != nil {
			return nil, err
		}
		return resp, nil
	case <-time.After(d.cfg.CallTimeout):
		return nil, ErrTimeout
	case <-d.stopScan:
		return nil, ErrClosed
	}
}

// respError returns the error a response carries, if it is a negative one:
// error responses (ptError) have an fErr field, which is how they are told
// apart from the matching positive response type.
func respError(resp *msg.Message) error {
	if !resp.Has(fErr) {
		return nil
	}
	return wireError("protos: remote error: %s", resp.GetString(fErr, "unknown"))
}

// wireError reconstructs an error that travelled as text in an fErr field,
// restoring the package's sentinel errors so callers can match them with
// errors.Is across the request/response wire (a Join refused by a minority
// coordinator must surface as ErrNonPrimary, not as opaque text).
func wireError(format, text string) error {
	for _, sentinel := range []error{
		ErrNonPrimary, ErrUnknownGroup, ErrNotMember, ErrUnknownProc, ErrDeadProcess, ErrClosed,
		errRelayEarly,
	} {
		if text == sentinel.Error() {
			return sentinel
		}
	}
	return fmt.Errorf(format, text)
}

// replyError sends a ptError response for a request.
func (d *Daemon) replyError(to addr.SiteID, callID int64, why string) {
	p := msg.New()
	p.PutInt(fCall, callID)
	p.PutString(fErr, why)
	_ = d.sendPacket(to, ptError, p)
}

// handleTransport dispatches an incoming daemon-to-daemon packet. The packet
// type sits at a fixed offset in the envelope, so dispatch does not decode
// the body; heartbeats carry no body at all and an abRecord builds no message.
// A decoded body, and a data packet, keep raw, a frame the receiver owns.
func (d *Daemon) handleTransport(from addr.SiteID, raw []byte) {
	if len(raw) < envelopeBytes || raw[0] != wireVersion {
		return
	}
	pt, body := raw[1], raw[envelopeBytes:]
	d.det.AddPeer(from)
	switch pt {
	case ptHeartbeat:
		d.det.OnHeartbeat(from)
		return
	case ptAbPropose, ptAbCommit, ptAbResolicit:
		if r, ok := parseAbRecord(body); ok {
			switch pt {
			case ptAbPropose:
				d.handleAbPropose(from, r)
			case ptAbCommit:
				d.handleAbCommit(from, r)
			default:
				d.handleAbResolicit(from, r)
			}
		}
		return
	case ptReply:
		if h, m, ok := parseReply(body); ok {
			d.handleReply(h, m)
		}
		return
	case ptData:
		if p, ok := parseDataPacket(raw); ok {
			d.mu.Lock()
			d.handleDataLocked(from, p)
			d.mu.Unlock()
		}
		return
	}
	p, err := msg.UnmarshalOwned(body, 0)
	if err != nil {
		return
	}
	switch pt {
	case ptGbRequest:
		d.handleGbRequest(from, p)
	case ptGbPrepare:
		d.handleGbPrepare(from, p)
	case ptGbAck, ptGbDone, ptLookupResp, ptError, ptRelayAck:
		d.respond(p.GetInt(fCall, 0), p)
	case ptGbCommit:
		d.applyGbCommit(from, p)
	case ptLookup:
		d.handleLookup(from, p)
	case ptStateBlock:
		d.handleStateBlock(from, p)
	case ptStateAck:
		d.handleStateAck(from, p)
	}
}

// onDetectorEvent reacts to site failures and recoveries.
func (d *Daemon) onDetectorEvent(ev fdetect.Event) {
	switch ev.Kind {
	case fdetect.SiteFailed:
		d.mu.Lock()
		d.suspected[ev.Site] = true
		d.mu.Unlock()
		d.bus.Publish(events.Event{Kind: events.SiteDown, Peer: ev.Site})
		// Abort in-flight calls to the dead site first so their callers
		// re-route to the successor while the failure is handled.
		d.failCallsTo(ev.Site)
		d.handleSiteFailure(ev.Site)
	case fdetect.SiteRecovered:
		d.mu.Lock()
		delete(d.suspected, ev.Site)
		d.mu.Unlock()
		d.bus.Publish(events.Event{Kind: events.SiteUp, Peer: ev.Site})
		// A healed partition: any group copy stranded in a non-primary
		// partition can now try to find the primary and merge back, and a
		// parked rejoin may find the primary it could not reach.
		d.mergeNonPrimaryGroups()
		d.repairs.kick()
	}
}

// SuspectedSites returns the sites currently believed failed.
func (d *Daemon) SuspectedSites() []addr.SiteID {
	return d.det.Suspected()
}
