package recovery

import (
	"sort"
	"sync"

	isis "repro"
	"repro/internal/stable"
)

// Advice tells a recovering service how to come back.
type Advice int

const (
	// Restart means the whole group is down (total failure): recreate it
	// from stable storage; this process was among the last to fail.
	Restart Advice = iota + 1
	// Rejoin means the group is still operating elsewhere (partial
	// failure): join it and obtain the current state by state transfer.
	Rejoin
)

// String names the advice.
func (a Advice) String() string {
	switch a {
	case Restart:
		return "restart"
	case Rejoin:
		return "rejoin"
	default:
		return "unknown"
	}
}

// RestartFunc brings a service back at this site following the given advice.
// It receives the service's stable store (which may be nil if none was
// registered).
type RestartFunc func(advice Advice, store stable.Store) error

// registration is one service the manager is responsible for.
type registration struct {
	name    string
	store   stable.Store
	restart RestartFunc
}

// Manager is the per-site recovery manager. In the real ISIS it is one of
// the long-lived service processes at each site (Figure 1).
type Manager struct {
	site *isis.Site

	mu       sync.Mutex
	services map[string]*registration
	auto     bool
}

// NewManager creates the recovery manager for a site.
func NewManager(site *isis.Site) *Manager {
	return &Manager{site: site, services: make(map[string]*registration)}
}

// Register records that the named service (a process-group name) should be
// restarted at this site after failures. The store holds its stable state
// and may be nil.
func (m *Manager) Register(name string, store stable.Store, restart RestartFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.services[name] = &registration{name: name, store: store, restart: restart}
}

// Unregister removes a service.
func (m *Manager) Unregister(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.services, name)
}

// Services returns the registered service names in sorted order.
func (m *Manager) Services() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.services))
	for n := range m.services {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Diagnose determines whether the named service's group is currently
// operational anywhere in the system. The lookup is performed through an
// ephemeral probe process at this site.
func (m *Manager) Diagnose(name string) (Advice, error) {
	probe, err := m.site.Spawn()
	if err != nil {
		return 0, err
	}
	defer probe.Kill()
	if _, err := probe.Lookup(name); err != nil {
		// Nobody answers for the group: total failure, restart from the
		// stable state (this site considers itself among the last to fail).
		return Restart, nil
	}
	return Rejoin, nil
}

// RecoverAll runs recovery for every registered service, in name order, and
// returns the advice that was applied per service.
func (m *Manager) RecoverAll() (map[string]Advice, error) {
	result := make(map[string]Advice)
	for _, name := range m.Services() {
		m.mu.Lock()
		reg := m.services[name]
		m.mu.Unlock()
		if reg == nil {
			continue
		}
		advice, err := m.Diagnose(name)
		if err != nil {
			return result, err
		}
		result[name] = advice
		if reg.restart != nil {
			if err := reg.restart(advice, reg.store); err != nil {
				return result, err
			}
		}
	}
	return result, nil
}

// AutoRestartOnSiteRecovery arranges for RecoverAll to run automatically
// when this site observes another site recovering (which is when migrated
// services may want to move back) — the "restart processes ... if a site
// recovers" behaviour of Section 3.8. It is optional; tests drive
// RecoverAll directly.
func (m *Manager) AutoRestartOnSiteRecovery() {
	m.mu.Lock()
	if m.auto {
		m.mu.Unlock()
		return
	}
	m.auto = true
	m.mu.Unlock()
	// The channel closes when the site's daemon shuts down, which ends the
	// goroutine; recoveries run one at a time.
	ups, _ := m.site.Events(isis.EventFilter{Kinds: []isis.EventKind{isis.EventSiteUp}})
	go func() {
		for range ups {
			_, _ = m.RecoverAll()
		}
	}()
}
