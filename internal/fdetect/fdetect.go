package fdetect

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"repro/internal/addr"
)

// SiteID aliases the address package's site identifier.
type SiteID = addr.SiteID

// EventKind distinguishes failure from recovery notifications.
type EventKind uint8

const (
	// SiteFailed is reported when nothing has been heard from a monitored site
	// for longer than the adaptive timeout.
	SiteFailed EventKind = iota + 1
	// SiteRecovered is reported when a site that had been declared failed is
	// heard from again.
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

// Poll is how the detector hears from its peers: it calls heard once for
// every peer site, with whether anything arrived from it since the previous
// call. The protocols process wires it to the transport's Poll.
type Poll func(heard func(site SiteID, any bool))

// Notify receives detector events. It is called from the detector's
// goroutine and must not block for long.
type Notify func(Event)

// Config holds detector parameters.
type Config struct {
	// HeartbeatInterval is how often the detector polls its peers; the
	// transport sends an otherwise idle peer a keepalive at the same pace.
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

// Detector monitors the peer sites its Poll reports.
type Detector struct {
	self   SiteID
	cfg    Config
	poll   Poll
	notify Notify

	mu    sync.Mutex
	peers map[SiteID]*peerState

	done    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
}

// New creates a detector. Call Start to begin monitoring.
func New(self SiteID, cfg Config, poll Poll, notify Notify) *Detector {
	if cfg.DeviationFactor <= 0 {
		cfg.DeviationFactor = 4
	}
	return &Detector{
		self:   self,
		cfg:    cfg,
		poll:   poll,
		notify: notify,
		peers:  make(map[SiteID]*peerState),
		done:   make(chan struct{}),
	}
}

// heardLocked records that a peer was heard from at now and feeds the gap
// since it was last heard to the estimator. It reports whether the peer had
// been declared failed. Caller holds d.mu.
func (d *Detector) heardLocked(p *peerState, now time.Time) (recovered bool) {
	gap := now.Sub(p.lastSeen)
	p.lastSeen = now
	if p.haveSample {
		// Exponentially weighted mean and mean deviation (alpha = 1/8,
		// beta = 1/4), mirroring the classic RTO estimator.
		diff := max(gap-p.meanGap, p.meanGap-gap)
		p.meanGap += (gap - p.meanGap) / 8
		p.devGap += (diff - p.devGap) / 4
	} else {
		p.meanGap, p.devGap, p.haveSample = gap, gap/2, true
	}
	recovered, p.failed = p.failed, false
	return recovered
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
	return min(max(t, d.cfg.MinTimeout), d.cfg.MaxTimeout)
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

// run polls and checks on one ticker.
func (d *Detector) run() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.done:
			return
		case now := <-ticker.C:
			d.tick(now)
		}
	}
}

// tick polls the peers — the first poll that reports a site starts monitoring
// it — then declares failed every peer not heard from within its timeout, and
// notifies the transitions in site order once it has let go of d.mu.
func (d *Detector) tick(now time.Time) {
	var evs []Event
	d.mu.Lock()
	d.poll(func(site SiteID, any bool) {
		p, ok := d.peers[site]
		switch {
		case site == d.self: // never monitored
		case !ok:
			d.peers[site] = &peerState{lastSeen: now}
		case any && d.heardLocked(p, now):
			evs = append(evs, Event{Site: site, Kind: SiteRecovered, When: now})
		}
	})
	for s, p := range d.peers {
		timeout := d.cfg.InitialTimeout
		if p.haveSample {
			timeout = d.clampTimeout(p)
		}
		if !p.failed && now.Sub(p.lastSeen) > timeout {
			p.failed = true
			evs = append(evs, Event{Site: s, Kind: SiteFailed, When: now})
		}
	}
	d.mu.Unlock()
	slices.SortFunc(evs, func(a, b Event) int { return cmp.Compare(a.Site, b.Site) })
	for _, e := range evs {
		if d.notify != nil {
			d.notify(e)
		}
	}
}
