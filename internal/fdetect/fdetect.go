package fdetect

import (
	"sort"
	"sync"
	"time"

	"repro/internal/addr"
)

// SiteID aliases the address package's site identifier.
type SiteID = addr.SiteID

// EventKind distinguishes failure from recovery notifications.
type EventKind uint8

const (
	// SiteFailed is reported when a monitored site misses heartbeats for
	// longer than the adaptive timeout.
	SiteFailed EventKind = iota + 1
	// SiteRecovered is reported when a heartbeat arrives from a site that
	// had been declared failed.
	SiteRecovered
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case SiteFailed:
		return "site-failed"
	case SiteRecovered:
		return "site-recovered"
	default:
		return "unknown"
	}
}

// Event is one failure-detector notification.
type Event struct {
	Site SiteID
	Kind EventKind
	When time.Time
}

// SendHeartbeat is the function the detector uses to emit a heartbeat to a
// peer site; the protocols process wires it to the transport.
type SendHeartbeat func(to SiteID)

// Notify receives detector events. It is called from the detector's
// goroutine and must not block for long.
type Notify func(Event)

// Config holds detector parameters.
type Config struct {
	// HeartbeatInterval is how often heartbeats are sent to every peer.
	HeartbeatInterval time.Duration
	// InitialTimeout is the failure timeout used before enough heartbeat
	// history exists to adapt.
	InitialTimeout time.Duration
	// MinTimeout and MaxTimeout clamp the adaptive timeout.
	MinTimeout time.Duration
	MaxTimeout time.Duration
	// DeviationFactor is the multiple of the observed mean deviation added
	// to the observed mean inter-arrival time (the adaptive rule is
	// timeout = mean + DeviationFactor*dev, in the spirit of TCP's RTO).
	DeviationFactor float64
}

// DefaultConfig returns parameters suitable for unit tests and the simulated
// cluster: 10 ms heartbeats, 100 ms initial timeout.
func DefaultConfig() Config {
	return Config{
		HeartbeatInterval: 10 * time.Millisecond,
		InitialTimeout:    100 * time.Millisecond,
		MinTimeout:        50 * time.Millisecond,
		MaxTimeout:        2 * time.Second,
		DeviationFactor:   4,
	}
}

type peerState struct {
	lastSeen   time.Time
	meanGap    time.Duration // smoothed inter-arrival time
	devGap     time.Duration // smoothed mean deviation
	haveSample bool
	failed     bool
}

// Detector monitors a set of peer sites.
type Detector struct {
	self   SiteID
	cfg    Config
	send   SendHeartbeat
	notify Notify

	mu    sync.Mutex
	peers map[SiteID]*peerState

	done    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
}

// New creates a detector. Call Start to begin monitoring.
func New(self SiteID, cfg Config, send SendHeartbeat, notify Notify) *Detector {
	if cfg.DeviationFactor <= 0 {
		cfg.DeviationFactor = 4
	}
	return &Detector{
		self:   self,
		cfg:    cfg,
		send:   send,
		notify: notify,
		peers:  make(map[SiteID]*peerState),
		done:   make(chan struct{}),
	}
}

// AddPeer begins monitoring a site; a site already monitored is left as it
// is.
func (d *Detector) AddPeer(site SiteID) {
	if site == d.self {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.peers[site]; !ok {
		d.peers[site] = &peerState{lastSeen: time.Now()}
	}
}

// Peers returns the monitored sites in ascending order.
func (d *Detector) Peers() []SiteID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]SiteID, 0, len(d.peers))
	for s := range d.peers {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Suspected returns the sites currently considered failed.
func (d *Detector) Suspected() []SiteID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []SiteID
	for s, p := range d.peers {
		if p.failed {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OnHeartbeat records a heartbeat received from a peer. If the peer had been
// declared failed, a recovery event is emitted.
func (d *Detector) OnHeartbeat(from SiteID) {
	now := time.Now()
	var recovered bool
	d.mu.Lock()
	p, ok := d.peers[from]
	if !ok {
		// Heartbeat from an unmonitored site: start monitoring it. This is
		// how a freshly started site becomes known to its peers.
		p = &peerState{lastSeen: now}
		d.peers[from] = p
		d.mu.Unlock()
		return
	}
	gap := now.Sub(p.lastSeen)
	p.lastSeen = now
	if p.haveSample {
		// Exponentially weighted mean and mean deviation (alpha = 1/8,
		// beta = 1/4), mirroring the classic RTO estimator.
		diff := gap - p.meanGap
		if diff < 0 {
			diff = -diff
		}
		p.meanGap += (gap - p.meanGap) / 8
		p.devGap += (diff - p.devGap) / 4
	} else {
		p.meanGap = gap
		p.devGap = gap / 2
		p.haveSample = true
	}
	if p.failed {
		p.failed = false
		recovered = true
	}
	notify := d.notify
	d.mu.Unlock()
	if recovered && notify != nil {
		notify(Event{Site: from, Kind: SiteRecovered, When: now})
	}
}

// TimeoutFor returns the current adaptive timeout for a peer. Exposed for
// tests and for the bench harness that reports detector behaviour.
func (d *Detector) TimeoutFor(site SiteID) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.peers[site]
	if !ok || !p.haveSample {
		return d.cfg.InitialTimeout
	}
	return d.clampTimeout(p)
}

func (d *Detector) clampTimeout(p *peerState) time.Duration {
	t := p.meanGap + time.Duration(float64(p.devGap)*d.cfg.DeviationFactor)
	if t < d.cfg.MinTimeout {
		t = d.cfg.MinTimeout
	}
	if t > d.cfg.MaxTimeout {
		t = d.cfg.MaxTimeout
	}
	return t
}

// Start launches the detector's loop.
func (d *Detector) Start() {
	d.wg.Add(1)
	go d.run()
}

// Stop terminates the background loop.
func (d *Detector) Stop() {
	d.stopped.Do(func() { close(d.done) })
	d.wg.Wait()
}

// run beats and checks on one ticker: peers are examined for timeout as
// often as they are expected to beat.
func (d *Detector) run() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-ticker.C:
			if d.send != nil {
				for _, peer := range d.Peers() {
					d.send(peer)
				}
			}
			d.checkTimeouts()
		}
	}
}

func (d *Detector) checkTimeouts() {
	now := time.Now()
	var failures []SiteID
	d.mu.Lock()
	for s, p := range d.peers {
		if p.failed {
			continue
		}
		timeout := d.cfg.InitialTimeout
		if p.haveSample {
			timeout = d.clampTimeout(p)
		}
		if now.Sub(p.lastSeen) > timeout {
			p.failed = true
			failures = append(failures, s)
		}
	}
	notify := d.notify
	d.mu.Unlock()
	if notify == nil {
		return
	}
	sort.Slice(failures, func(i, j int) bool { return failures[i] < failures[j] })
	for _, s := range failures {
		notify(Event{Site: s, Kind: SiteFailed, When: now})
	}
}
