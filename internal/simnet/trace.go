package simnet

import (
	"sync"
	"time"
)

// EventKind classifies trace events.
type EventKind uint8

const (
	// EventSend is recorded when a packet is submitted to the network.
	EventSend EventKind = iota + 1
	// EventDeliver is recorded when a packet reaches its destination.
	EventDeliver
	// EventDrop is recorded when the loss model discards a packet.
	EventDrop
	// EventDiscard is recorded when a packet arrives at a detached site.
	EventDiscard
	// EventPhase is recorded by protocol layers (not by simnet itself) to
	// mark protocol phases; it carries a label. The Figure 3 breakdown is
	// assembled from these events plus the send/deliver events between
	// them.
	EventPhase
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventSend:
		return "send"
	case EventDeliver:
		return "deliver"
	case EventDrop:
		return "drop"
	case EventDiscard:
		return "discard"
	case EventPhase:
		return "phase"
	default:
		return "unknown"
	}
}

// Event is one trace record.
type Event struct {
	Kind    EventKind
	From    SiteID
	To      SiteID
	First   byte // the packet's first byte; 0 for an empty packet or an EventPhase
	Size    int
	When    time.Time
	Latency time.Duration // link delay assigned (EventSend only)
	Label   string        // protocol phase label (EventPhase only)
}

// Tracer receives trace events. Implementations must be safe for concurrent
// use; the network calls Trace from many goroutines.
type Tracer interface {
	Trace(Event)
}

// trace is a nil-safe helper that records the packet's size and first byte.
func trace(t Tracer, e Event, payload []byte) {
	if t != nil {
		if e.Size = len(payload); e.Size > 0 {
			e.First = payload[0]
		}
		t.Trace(e)
	}
}

// Recorder is a Tracer that accumulates events in memory.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Trace appends an event.
func (r *Recorder) Trace(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in arrival order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Reset discards all recorded events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.mu.Unlock()
}

// CountKind returns the number of recorded events of the given kind.
func (r *Recorder) CountKind(k EventKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}
