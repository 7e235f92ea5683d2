package core

import "slices"

// BoundedLog is a map that remembers at most limit entries: putting a new
// key into a full log forgets the oldest one. It is the stack's one
// bounded-memory record — the total-order queue's delivered ids here; in
// internal/protos a copy's recent deliveries, the requester's request states
// and a copy's skipped request ids (where its table test lives; the test of
// its two fields against each other is beside it here); and in
// internal/tools/coordcohort the reply copies that overtook their request. It
// has no lock of its own: whoever owns the state it belongs to serializes
// access.
type BoundedLog[K comparable, V any] struct {
	limit int
	vals  map[K]V // made by the first Put
	order []K     // exactly the keys of vals, oldest first
}

// NewBoundedLog returns an empty log of the given limit. It is a value: a
// log nobody has Put into yet costs its owner no allocation.
func NewBoundedLog[K comparable, V any](limit int) BoundedLog[K, V] {
	return BoundedLog[K, V]{limit: limit}
}

// Get returns the value recorded for k, if it is still remembered.
func (l *BoundedLog[K, V]) Get(k K) (V, bool) {
	v, ok := l.vals[k]
	return v, ok
}

// Put records v for k. A key already in the log keeps its age; a new key is
// the youngest, and pushes out the oldest once the log is full.
func (l *BoundedLog[K, V]) Put(k K, v V) {
	if l.vals == nil {
		l.vals = make(map[K]V)
	}
	if _, ok := l.vals[k]; !ok {
		if len(l.order) == l.limit {
			delete(l.vals, l.order[0])
			l.order = l.order[1:]
		}
		l.order = append(l.order, k)
	}
	l.vals[k] = v
}

// Delete forgets k: a skipped request id a seal finds committed, a reply copy
// its request has come for. The search runs from the young end, where such a
// key, put a moment ago, is likeliest.
func (l *BoundedLog[K, V]) Delete(k K) {
	if _, ok := l.vals[k]; !ok {
		return
	}
	delete(l.vals, k)
	for i := len(l.order) - 1; i >= 0; i-- {
		if l.order[i] == k {
			l.order = slices.Delete(l.order, i, i+1)
			return
		}
	}
}

// Keys returns the remembered keys, oldest first. The slice is the log's
// own: it is only valid until the next Put or Delete.
func (l *BoundedLog[K, V]) Keys() []K { return l.order }
