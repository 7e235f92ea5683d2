package config

import (
	"errors"
	"fmt"
	"sync"

	isis "repro"
)

// ErrNotMember is returned when a non-member attempts a local read.
var ErrNotMember = errors.New("config: process is not attached to the configuration")

// Tool is one member's handle on the group's configuration structure.
type Tool struct {
	p   *isis.Process
	gid isis.Address

	mu      sync.Mutex
	values  map[string][]byte
	version uint64
	watch   []func(key string, value []byte, version uint64)
}

// New attaches a group member to the configuration structure. Every member
// that wants to read the configuration must create its own Tool (the data
// is stored directly in the members, as the paper describes).
func New(p *isis.Process, gid isis.Address) *Tool {
	t := &Tool{p: p, gid: gid, values: make(map[string][]byte)}
	p.BindEntry(isis.EntryConfig, t.onUpdate)
	return t
}

// Update installs a new value for a key at every member. The change is
// carried by GBCAST, so it is ordered consistently with respect to every
// other multicast and membership change; it costs one GBCAST.
func (t *Tool) Update(key string, value []byte) error {
	m := isis.NewMessage()
	m.PutString("cfg-key", key)
	m.PutBytes("cfg-val", value)
	_, err := t.p.Cast(isis.GBCAST, []isis.Address{t.gid}, isis.EntryConfig, m)
	return err
}

// Read returns the local copy of a key's value (nil if unset) and the
// configuration version that produced it. It involves no communication.
func (t *Tool) Read(key string) ([]byte, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.values[key]
	if !ok {
		return nil, t.version
	}
	return append([]byte(nil), v...), t.version
}

// Version returns the number of configuration updates applied so far.
func (t *Tool) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// Keys returns the currently configured keys.
func (t *Tool) Keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.values))
	for k := range t.values {
		out = append(out, k)
	}
	return out
}

// Watch registers a callback invoked (on the member's task queue order)
// whenever a configuration update is applied.
func (t *Tool) Watch(cb func(key string, value []byte, version uint64)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.watch = append(t.watch, cb)
}

// onUpdate applies a configuration update delivered by GBCAST.
func (t *Tool) onUpdate(m *isis.Message) {
	key := m.GetString("cfg-key", "")
	val := m.GetBytes("cfg-val")
	t.mu.Lock()
	t.values[key] = append([]byte(nil), val...)
	t.version++
	version := t.version
	cbs := make([]func(string, []byte, uint64), len(t.watch))
	copy(cbs, t.watch)
	t.mu.Unlock()
	for _, cb := range cbs {
		cb(key, val, version)
	}
}

// Snapshot serializes the configuration for a state transfer to a joining
// member.
func (t *Tool) Snapshot() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := isis.NewMessage()
	m.PutInt("version", int64(t.version))
	i := 0
	for k, v := range t.values {
		e := isis.NewMessage().PutString("k", k).PutBytes("v", v)
		m.PutMessage(keyName(i), e)
		i++
	}
	m.PutInt("n", int64(i))
	b, _ := m.Marshal()
	return b
}

// Install replaces the local configuration with a snapshot produced by
// Snapshot (used when joining with a state transfer).
func (t *Tool) Install(snapshot []byte) error {
	m, err := isis.UnmarshalMessage(snapshot)
	if err != nil {
		return err
	}
	values := make(map[string][]byte)
	n := int(m.GetInt("n", 0))
	for i := 0; i < n; i++ {
		e := m.GetMessage(keyName(i))
		if e == nil {
			continue
		}
		values[e.GetString("k", "")] = e.GetBytes("v")
	}
	t.mu.Lock()
	t.values = values
	t.version = uint64(m.GetInt("version", 0))
	t.mu.Unlock()
	return nil
}

func keyName(i int) string { return fmt.Sprintf("e%d", i) }
