package addr

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Kind distinguishes the two classes of addressable entities.
type Kind uint8

const (
	// KindNil is the kind of the zero Address.
	KindNil Kind = iota
	// KindProcess addresses a single process.
	KindProcess
	// KindGroup addresses a process group; a multicast to such an address
	// is expanded to the group's current membership by the protocols
	// process.
	KindGroup
)

// String returns a short human readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindProcess:
		return "proc"
	case KindGroup:
		return "group"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// SiteID identifies a computing site (a machine in the paper's model).
type SiteID uint16

// Incarnation distinguishes successive restarts of the same site, so that
// addresses minted before a crash can never collide with addresses minted
// after recovery.
type Incarnation uint8

// EntryID identifies an entry point within a process (a 1-byte identifier in
// the paper). Entry 0 is reserved for "no entry" / default.
type EntryID uint8

// Well-known generic entry points used by the toolkit itself. User entries
// should start at EntryUserBase.
const (
	EntryDefault       EntryID = 0  // default delivery entry
	EntryMembership    EntryID = 2  // membership change notifications
	EntryStateTransfer EntryID = 3  // state transfer blocks
	EntryGenericCCRply EntryID = 4  // GENERIC_CC_REPLY used by coordinator-cohort
	EntryConfig        EntryID = 5  // configuration tool updates
	EntryNews          EntryID = 6  // news service postings
	EntryUserBase      EntryID = 16 // first entry id available to applications
)

// Address is the 8-byte encoded identifier of a process or a process group.
type Address struct {
	Site    SiteID      // site at which the entity was created
	Incarn  Incarnation // incarnation of that site
	Kind    Kind        // process or group
	Entry   EntryID     // entry point (0 unless the address names an entry)
	LocalID uint32      // locally unique id assigned by the creating site (24 bits used)
}

// Nil is the zero address.
var Nil Address

// NewProcess builds a process address.
func NewProcess(site SiteID, inc Incarnation, local uint32) Address {
	return Address{Site: site, Incarn: inc, Kind: KindProcess, LocalID: local}
}

// NewGroup builds a group address.
func NewGroup(site SiteID, inc Incarnation, local uint32) Address {
	return Address{Site: site, Incarn: inc, Kind: KindGroup, LocalID: local}
}

// IsNil reports whether a is the zero address.
func (a Address) IsNil() bool { return a == Address{} }

// IsGroup reports whether a names a process group.
func (a Address) IsGroup() bool { return a.Kind == KindGroup }

// WithEntry returns a copy of a that carries the given entry point. The
// original address is unchanged; addresses are values.
func (a Address) WithEntry(e EntryID) Address {
	a.Entry = e
	return a
}

// Base returns a with the entry point cleared; two addresses that differ
// only in entry point have the same Base. Routing and membership operate on
// base addresses.
func (a Address) Base() Address {
	a.Entry = 0
	return a
}

// SameEntity reports whether a and b name the same process or group,
// ignoring the entry point.
func (a Address) SameEntity(b Address) bool { return a.Base() == b.Base() }

// String renders the address in the form used throughout log output, e.g.
// "proc(2.1/17:5)" for process 17 created by incarnation 1 of site 2,
// entry 5.
func (a Address) String() string {
	if a.IsNil() {
		return "addr(nil)"
	}
	if a.Entry != 0 {
		return fmt.Sprintf("%s(%d.%d/%d:%d)", a.Kind, a.Site, a.Incarn, a.LocalID, a.Entry)
	}
	return fmt.Sprintf("%s(%d.%d/%d)", a.Kind, a.Site, a.Incarn, a.LocalID)
}

// Compare totally orders addresses: first by site, then incarnation, kind,
// local id, and finally entry. It returns -1, 0, or +1. The total order is
// used to break ties deterministically in the ABCAST protocol and when
// ranking otherwise-equal members.
func (a Address) Compare(b Address) int {
	switch {
	case a.Site != b.Site:
		return cmpU64(uint64(a.Site), uint64(b.Site))
	case a.Incarn != b.Incarn:
		return cmpU64(uint64(a.Incarn), uint64(b.Incarn))
	case a.Kind != b.Kind:
		return cmpU64(uint64(a.Kind), uint64(b.Kind))
	case a.LocalID != b.LocalID:
		return cmpU64(uint64(a.LocalID), uint64(b.LocalID))
	default:
		return cmpU64(uint64(a.Entry), uint64(b.Entry))
	}
}

// Less reports whether a orders before b under Compare.
func (a Address) Less(b Address) bool { return a.Compare(b) < 0 }

func cmpU64(x, y uint64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	default:
		return 0
	}
}

// EncodedSize is the number of bytes produced by Encode: the paper's 8-byte
// identifier.
const EncodedSize = 8

// Encode packs the address into its 8-byte wire form:
//
//	bytes 0-1  site id (big endian)
//	byte  2    incarnation
//	byte  3    kind
//	byte  4    entry id
//	bytes 5-7  local id (24 bits, big endian)
func (a Address) Encode() [EncodedSize]byte {
	var b [EncodedSize]byte
	binary.BigEndian.PutUint16(b[0:2], uint16(a.Site))
	b[2] = byte(a.Incarn)
	b[3] = byte(a.Kind)
	b[4] = byte(a.Entry)
	b[5] = byte(a.LocalID >> 16)
	b[6] = byte(a.LocalID >> 8)
	b[7] = byte(a.LocalID)
	return b
}

// AppendEncoded appends the 8-byte wire form of a to dst and returns the
// extended slice.
func (a Address) AppendEncoded(dst []byte) []byte {
	enc := a.Encode()
	return append(dst, enc[:]...)
}

// ErrShortAddress is returned by Decode when fewer than EncodedSize bytes
// are available.
var ErrShortAddress = errors.New("addr: short address encoding")

// ErrBadKind is returned by Decode when the kind byte is not a known Kind.
var ErrBadKind = errors.New("addr: invalid address kind")

// Decode parses an address from the first EncodedSize bytes of b.
func Decode(b []byte) (Address, error) {
	if len(b) < EncodedSize {
		return Address{}, ErrShortAddress
	}
	k := Kind(b[3])
	if k > KindGroup {
		return Address{}, ErrBadKind
	}
	a := Address{
		Site:    SiteID(binary.BigEndian.Uint16(b[0:2])),
		Incarn:  Incarnation(b[2]),
		Kind:    k,
		Entry:   EntryID(b[4]),
		LocalID: uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7]),
	}
	return a, nil
}

// List is a destination list: the paper's broadcasts accept a list of
// destinations, each of which may be a process or a group address.
type List []Address

// Contains reports whether the list contains an address with the same
// entity as a (entry points ignored).
func (l List) Contains(a Address) bool {
	for _, x := range l {
		if x.SameEntity(a) {
			return true
		}
	}
	return false
}

// Clone returns a copy of the list.
func (l List) Clone() List {
	if l == nil {
		return nil
	}
	out := make(List, len(l))
	copy(out, l)
	return out
}

// Dedup returns the list with duplicate entities removed, preserving the order
// of first occurrence: a copy, except that a list of fewer than two entries is
// returned as it is (the one caller, protos.MulticastRequest, only ranges over it).
func (l List) Dedup() List {
	if len(l) < 2 {
		return l
	}
	seen := make(map[Address]bool, len(l))
	out := make(List, 0, len(l))
	for _, a := range l {
		b := a.Base()
		if seen[b] {
			continue
		}
		seen[b] = true
		out = append(out, a)
	}
	return out
}

// Generator mints locally unique addresses for one site incarnation. It is
// not safe for concurrent use; each site wraps it in its own lock.
type Generator struct {
	site SiteID
	inc  Incarnation
	next uint32
}

// NewGenerator returns a generator for the given site and incarnation. The
// first identifier handed out is 1; local id 0 is reserved.
func NewGenerator(site SiteID, inc Incarnation) *Generator {
	return &Generator{site: site, inc: inc, next: 1}
}

// NextProcess returns a fresh process address.
func (g *Generator) NextProcess() Address {
	a := NewProcess(g.site, g.inc, g.next)
	g.next++
	return a
}

// NextGroup returns a fresh group address.
func (g *Generator) NextGroup() Address {
	a := NewGroup(g.site, g.inc, g.next)
	g.next++
	return a
}
