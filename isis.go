// Package isis is a from-scratch Go reproduction of the ISIS-2 virtually
// synchronous programming toolkit described in "Exploiting Virtual Synchrony
// in Distributed Systems" (Birman & Joseph, SOSP 1987).
//
// The toolkit lets a distributed application be written as a collection of
// conventional, non-distributed programs connected through process groups
// and ordered multicast. In a virtually synchronous environment it appears
// to every process that broadcasts to a group, group membership changes,
// failures, and state transfers occur instantaneously — in the same order
// everywhere — even though the implementation is highly concurrent and
// asynchronous.
//
// The package exposes:
//
//   - Cluster / Site / Process — the simulated distributed system: a set of
//     sites on a simulated LAN, each running a protocols daemon (Figure 1 of
//     the paper), with client processes attached to sites.
//   - Process groups — create, lookup, join (optionally with state
//     transfer), leave, and monitor membership; views are ranked by age and
//     identical at all members.
//   - Group RPC — Cast sends a message with CBCAST (causal), ABCAST (total
//     order) or GBCAST (globally ordered) semantics and collects 0, 1, N or
//     All replies; Reply / NullReply answer a request.
//   - The toolkit tools of Section 3 live in internal/tools/(coordcohort,
//     config, replica, sema, statexfer, recovery, news, protect, bboard,
//     txn) and are built entirely on this public interface.
//
// Everything runs in-process on a simulated network whose latency,
// bandwidth, loss and fragmentation parameters are configurable
// (simnet.PaperConfig reproduces the 1987 testbed parameters quoted in the
// paper's Section 7).
package isis

import (
	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/msg"
	"repro/internal/protos"
	"repro/internal/simnet"
)

// Re-exported fundamental types, so applications only import this package.
type (
	// Address names a process or a process group.
	Address = addr.Address
	// SiteID identifies a computing site.
	SiteID = addr.SiteID
	// EntryID identifies an entry point within a process.
	EntryID = addr.EntryID
	// Message is the symbol-table message of Section 4.1. A handler owns the
	// message it is delivered and the slices Bytes and GetBytes return; only
	// a BytesView is read-only (it shares storage with the other members'
	// deliveries).
	Message = msg.Message
	// View is a process-group membership view, ranked by age.
	View = core.View
	// Protocol selects the multicast primitive.
	Protocol = protos.Protocol
	// Counters tallies protocol activity (used by the benchmark harness).
	Counters = protos.Counters
	// Event is one operational event from a site's event stream.
	Event = events.Event
	// EventKind classifies an operational event.
	EventKind = events.Kind
	// EventFilter restricts an event subscription; the zero value matches
	// every event.
	EventFilter = events.Filter
	// EventStats reports publish and drop totals of an event bus.
	EventStats = events.Stats
	// Outcome is the fate of a tracked group request (Process.Outcome).
	Outcome = protos.Outcome
)

// Operational event kinds (Site.Events / Cluster.Events).
const (
	EventViewInstalled  = events.ViewInstalled
	EventViewCommitted  = events.ViewCommitted
	EventPrimaryLost    = events.PrimaryLost
	EventPrimaryResumed = events.PrimaryResumed
	EventPartitionWedge = events.PartitionWedge
	EventMergeStart     = events.MergeStart
	EventMergePark      = events.MergePark
	EventMergeRetry     = events.MergeRetry
	EventMergeLand      = events.MergeLand
	EventFlushBegin     = events.FlushBegin
	EventFlushComplete  = events.FlushComplete
	EventTakeover       = events.Takeover
	EventSiteDown       = events.SiteDown
	EventSiteUp         = events.SiteUp
	EventSiteRestart    = events.SiteRestart
	EventLinkDown       = events.LinkDown
	EventLinkUp         = events.LinkUp
)

// Request outcomes (Process.Outcome).
const (
	// OutcomeUnknown means the system cannot yet prove the request committed
	// or aborted — typically because a partition hides the members that would
	// know. Ask again later.
	OutcomeUnknown = protos.OutcomeUnknown
	// OutcomeCommitted means some group member executed the request.
	OutcomeCommitted = protos.OutcomeCommitted
	// OutcomeAborted means the request never executed and never will.
	OutcomeAborted = protos.OutcomeAborted
)

// ErrUnknownRequest is returned by Process.Outcome for a request id this
// site never issued (or one so old its record was evicted).
var ErrUnknownRequest = protos.ErrUnknownRequest

// Multicast protocols (Section 3.1).
const (
	// CBCAST delivers potentially causally related messages in the order
	// they were sent; it is asynchronous and cheap.
	CBCAST = protos.CBCAST
	// ABCAST delivers messages atomically and in the same order everywhere,
	// each after everything its sender's site had delivered when it was cast.
	// A CBCAST its sender casts next is ordered after it only once the
	// sender's Flush has returned.
	ABCAST = protos.ABCAST
	// GBCAST is ordered relative to every other multicast and to membership
	// changes.
	GBCAST = protos.GBCAST
)

// Well-known entry points. Applications use EntryUserBase and above.
const (
	EntryDefault       = addr.EntryDefault
	EntryMembership    = addr.EntryMembership
	EntryStateTransfer = addr.EntryStateTransfer
	EntryGenericCCRply = addr.EntryGenericCCRply
	EntryConfig        = addr.EntryConfig
	EntryNews          = addr.EntryNews
	EntryUserBase      = addr.EntryUserBase
)

// ErrNonPrimary is returned by writes (Cast, Join, Leave, group creation
// traffic) addressed to a group whose local copy is stranded in a
// non-primary (minority) partition. The copy is read-only until the
// partition heals and the merge protocol rejoins the primary.
var ErrNonPrimary = protos.ErrNonPrimary

// NewMessage returns an empty message.
func NewMessage() *Message { return msg.New() }

// UnmarshalMessage decodes a message previously produced by Message.Marshal.
func UnmarshalMessage(b []byte) (*Message, error) { return msg.Unmarshal(b) }

// Text builds a message with a single string field named "body"; most of the
// examples and tests use it as a convenient payload constructor.
func Text(body string) *Message { return msg.New().PutString("body", body) }

// PaperNetConfig returns the simulated-LAN parameters calibrated to the
// paper's 1987 testbed (Section 7 / Figure 3): 10 µs intra-site hops, 16 ms
// inter-site packets, a 10 Mbit/s Ethernet and 4 KB packet fragmentation.
func PaperNetConfig() simnet.Config { return simnet.PaperConfig() }

// FastNetConfig returns near-zero network delays for tests.
func FastNetConfig() simnet.Config { return simnet.FastConfig() }
