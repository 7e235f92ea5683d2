package msg

import (
	"bytes"
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/addr"
)

// FieldType enumerates the wire types a field can carry.
type FieldType uint8

const (
	// TypeBytes is an opaque byte string.
	TypeBytes FieldType = iota + 1
	// TypeString is a UTF-8 string.
	TypeString
	// TypeInt is a signed 64-bit integer.
	TypeInt
	// TypeAddress is a single ISIS address.
	TypeAddress
	// TypeAddressList is a list of ISIS addresses.
	TypeAddressList
	// TypeMessage is a nested message.
	TypeMessage
)

// String names the field type for diagnostics.
func (t FieldType) String() string {
	switch t {
	case TypeBytes:
		return "bytes"
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeAddress:
		return "address"
	case TypeAddressList:
		return "addresses"
	case TypeMessage:
		return "message"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// System field names. Fields whose names begin with '@' are reserved for the
// toolkit and the protocols process; the protection tool strips them from
// client-supplied messages so that a sender address can never be forged
// (Section 3.10).
const (
	FSender   = "@sender"   // address of the sending process (set by protos)
	FSession  = "@session"  // session id matching a reply to its pending call
	FDests    = "@dests"    // destination list of the broadcast
	FProtocol = "@protocol" // which multicast primitive carried the message
	FEntry    = "@entry"    // destination entry point
	FViewID   = "@viewid"   // view in which the message was sent
	FGroup    = "@group"    // group address the message was sent to
	FReply    = "@reply"    // set on reply messages: 1 normal, 2 null
	FMsgID    = "@msgid"    // unique broadcast identifier assigned by protos
)

// SystemPrefix is the first byte of every reserved field name.
const SystemPrefix = '@'

// IsSystemField reports whether name is reserved for the toolkit.
func IsSystemField(name string) bool {
	return len(name) > 0 && name[0] == SystemPrefix
}

// field is one entry of the symbol table, in a tagged compact form: one
// scalar word, one string and the nested pointer, of which typ says which is
// in use.
//
// Variable-length values are immutable once stored: a Put replaces ref, it
// never writes through it. That is what lets Clone, the per-member
// deliveries and a decoded packet's fields share storage without copying.
type field struct {
	name string
	typ  FieldType
	kind addr.Kind // TypeAddress: the address kind; the other parts are packed in num
	num  uint64    // TypeInt: the value; TypeAddress: see packAddress
	ref  string    // TypeString: the value; TypeBytes: the payload; TypeAddressList: the wire encoding
	sub  *Message  // TypeMessage: the nested message
}

// packAddress folds every part of an address except its kind into one word.
func packAddress(a addr.Address) uint64 {
	return uint64(a.Site)<<48 | uint64(a.Incarn)<<40 | uint64(a.Entry)<<32 | uint64(a.LocalID)
}

// address rebuilds the address of a TypeAddress field.
func (f *field) address() addr.Address {
	return addr.Address{
		Site:    addr.SiteID(f.num >> 48),
		Incarn:  addr.Incarnation(f.num >> 40),
		Kind:    f.kind,
		Entry:   addr.EntryID(f.num >> 32),
		LocalID: uint32(f.num),
	}
}

// view returns the bytes of a stored value without copying. The slice is
// read-only: the storage is shared with clones of the message and, for a
// decoded message, with the rest of the packet.
func view(s string) []byte {
	if s == "" {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// frozen returns b as a string without copying. The caller gives b up: it
// must never be written again.
func frozen(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// frozenAddresses returns the wire encoding of an address list.
func frozenAddresses(v addr.List) string {
	b := make([]byte, 0, len(v)*addr.EncodedSize)
	for _, a := range v {
		b = a.AppendEncoded(b)
	}
	return frozen(b)
}

// addresses decodes the value of a TypeAddressList field into a fresh list.
// The encoding was validated when it was stored, so decoding cannot fail.
func (f *field) addresses() addr.List {
	if f.ref == "" {
		return nil
	}
	out := make(addr.List, 0, len(f.ref)/addr.EncodedSize)
	for off := 0; off < len(f.ref); off += addr.EncodedSize {
		out = append(out, decodeAddress(f.ref[off:]))
	}
	return out
}

// Message is a mutable symbol table of named, typed fields. The zero value
// is not usable; call New.
type Message struct {
	fields []field // sorted by name
}

// firstFields is the capacity a field table starts with on its first Put,
// and the headroom Clone leaves for the fields its caller is about to add
// (the toolkit's system fields).
const firstFields = 4

// New returns an empty message.
func New() *Message {
	return &Message{}
}

// NewSized returns an empty message with room for n fields, for builders
// that know how many they are about to put.
func NewSized(n int) *Message {
	return &Message{fields: make([]field, 0, n)}
}

// find returns the index where name is or would be stored, and whether it is
// present.
func (m *Message) find(name string) (int, bool) {
	lo, hi := 0, len(m.fields)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.fields[mid].name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.fields) && m.fields[lo].name == name
}

// lookup returns the named field if it is present with the given type, and
// nil otherwise. It is the error-free path under Has and the Get* getters.
func (m *Message) lookup(name string, typ FieldType) *field {
	if i, ok := m.find(name); ok && m.fields[i].typ == typ {
		return &m.fields[i]
	}
	return nil
}

// slot returns a pointer to the (possibly freshly inserted) field for name,
// cleared except for its name and type.
func (m *Message) slot(name string, typ FieldType) *field {
	n := len(m.fields)
	// Builders and the decoder mostly add fields in ascending order.
	i, ok := n, false
	if n > 0 && m.fields[n-1].name >= name {
		i, ok = m.find(name)
	}
	if !ok {
		if n == cap(m.fields) {
			grown := make([]field, n, n+max(firstFields, n/2))
			copy(grown, m.fields)
			m.fields = grown
		}
		m.fields = m.fields[:n+1]
		copy(m.fields[i+1:], m.fields[i:])
	}
	f := &m.fields[i]
	*f = field{name: name, typ: typ}
	return f
}

// Len returns the number of fields in the message.
func (m *Message) Len() int { return len(m.fields) }

// Has reports whether the named field is present.
func (m *Message) Has(name string) bool {
	_, ok := m.find(name)
	return ok
}

// Type returns the type of the named field and whether it exists.
func (m *Message) Type(name string) (FieldType, bool) {
	i, ok := m.find(name)
	if !ok {
		return 0, false
	}
	return m.fields[i].typ, true
}

// Delete removes the named field if present.
func (m *Message) Delete(name string) {
	i, ok := m.find(name)
	if !ok {
		return
	}
	copy(m.fields[i:], m.fields[i+1:])
	m.fields[len(m.fields)-1] = field{}
	m.fields = m.fields[:len(m.fields)-1]
}

// Names returns the field names in sorted order.
func (m *Message) Names() []string {
	out := make([]string, len(m.fields))
	for i := range m.fields {
		out[i] = m.fields[i].name
	}
	return out
}

// PutBytes sets a bytes field. The slice is copied.
func (m *Message) PutBytes(name string, v []byte) *Message {
	m.slot(name, TypeBytes).ref = string(v)
	return m
}

// PutString sets a string field.
func (m *Message) PutString(name, v string) *Message {
	m.slot(name, TypeString).ref = v
	return m
}

// PutInt sets an integer field.
func (m *Message) PutInt(name string, v int64) *Message {
	m.slot(name, TypeInt).num = uint64(v)
	return m
}

// PutAddress sets an address field.
func (m *Message) PutAddress(name string, v addr.Address) *Message {
	f := m.slot(name, TypeAddress)
	f.kind, f.num = v.Kind, packAddress(v)
	return m
}

// PutAddressList sets an address list field. The list is copied.
func (m *Message) PutAddressList(name string, v addr.List) *Message {
	m.slot(name, TypeAddressList).ref = frozenAddresses(v)
	return m
}

// PutMessage sets a nested message field. The nested message is stored by
// reference; callers that will keep mutating it should Put a Clone instead.
func (m *Message) PutMessage(name string, v *Message) *Message {
	m.slot(name, TypeMessage).sub = v
	return m
}

// Errors returned by the typed getters.
var (
	ErrNoField   = errors.New("msg: no such field")
	ErrWrongType = errors.New("msg: field has a different type")
)

// get returns the field for name, or an error when absent or of another type.
func (m *Message) get(name string, typ FieldType) (*field, error) {
	if f := m.lookup(name, typ); f != nil {
		return f, nil
	}
	if t, ok := m.Type(name); ok {
		return nil, fmt.Errorf("%w: %q is %v", ErrWrongType, name, t)
	}
	return nil, fmt.Errorf("%w: %q", ErrNoField, name)
}

// Bytes returns a copy of the bytes field, or an error if missing or of
// another type.
func (m *Message) Bytes(name string) ([]byte, error) {
	f, err := m.get(name, TypeBytes)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(view(f.ref)), nil
}

// String returns the string field.
func (m *Message) String(name string) (string, error) {
	f, err := m.get(name, TypeString)
	if err != nil {
		return "", err
	}
	return f.ref, nil
}

// Int returns the integer field.
func (m *Message) Int(name string) (int64, error) {
	f, err := m.get(name, TypeInt)
	if err != nil {
		return 0, err
	}
	return int64(f.num), nil
}

// Address returns the address field.
func (m *Message) Address(name string) (addr.Address, error) {
	f, err := m.get(name, TypeAddress)
	if err != nil {
		return addr.Nil, err
	}
	return f.address(), nil
}

// AddressList returns a fresh copy of the address list field.
func (m *Message) AddressList(name string) (addr.List, error) {
	f, err := m.get(name, TypeAddressList)
	if err != nil {
		return nil, err
	}
	return f.addresses(), nil
}

// Message returns the nested message field.
func (m *Message) Message(name string) (*Message, error) {
	f, err := m.get(name, TypeMessage)
	if err != nil {
		return nil, err
	}
	return f.sub, nil
}

// Convenience getters with defaults, used pervasively by the toolkit where a
// missing field simply means "use the zero value".

// GetInt returns the integer field or def when absent or mistyped.
func (m *Message) GetInt(name string, def int64) int64 {
	if f := m.lookup(name, TypeInt); f != nil {
		return int64(f.num)
	}
	return def
}

// GetString returns the string field or def when absent or mistyped.
func (m *Message) GetString(name, def string) string {
	if f := m.lookup(name, TypeString); f != nil {
		return f.ref
	}
	return def
}

// GetBytes returns a copy of the bytes field, which the caller owns, or nil
// when absent or mistyped.
func (m *Message) GetBytes(name string) []byte {
	return bytes.Clone(m.BytesView(name))
}

// BytesView is GetBytes without the copy, for callers that only read: the
// slice must not be written to (its storage is shared with clones of the
// message and the other deliveries of a multicast).
func (m *Message) BytesView(name string) []byte {
	if f := m.lookup(name, TypeBytes); f != nil {
		return view(f.ref)
	}
	return nil
}

// GetAddress returns the address field or addr.Nil when absent or mistyped.
func (m *Message) GetAddress(name string) addr.Address {
	if f := m.lookup(name, TypeAddress); f != nil {
		return f.address()
	}
	return addr.Nil
}

// GetAddressList returns a fresh copy of the address list field, or nil.
func (m *Message) GetAddressList(name string) addr.List {
	if f := m.lookup(name, TypeAddressList); f != nil {
		return f.addresses()
	}
	return nil
}

// GetMessage returns the nested message field or nil.
func (m *Message) GetMessage(name string) *Message {
	if f := m.lookup(name, TypeMessage); f != nil {
		return f.sub
	}
	return nil
}

// Sender returns the system sender field (addr.Nil if unset).
func (m *Message) Sender() addr.Address { return m.GetAddress(FSender) }

// Session returns the system session id (0 if unset).
func (m *Message) Session() int64 { return m.GetInt(FSession, 0) }

// Group returns the group address the message was multicast to (addr.Nil if
// it was a point-to-point send).
func (m *Message) Group() addr.Address { return m.GetAddress(FGroup) }

// StripSystemFields removes every reserved '@' field. The protection tool
// applies this to messages submitted by clients so system fields can only be
// set by the toolkit itself.
func (m *Message) StripSystemFields() {
	kept := m.fields[:0]
	for i := range m.fields {
		if !IsSystemField(m.fields[i].name) {
			kept = append(kept, m.fields[i])
		}
	}
	clear(m.fields[len(kept):])
	m.fields = kept
}

// Clone returns a copy of the message that shares nothing mutable with it:
// the field table is copied (with headroom for a few more fields), nested
// messages are cloned, and variable-length values — immutable once stored —
// are shared.
func (m *Message) Clone() *Message { return m.clone(firstFields) }

func (m *Message) clone(room int) *Message {
	out := &Message{}
	if len(m.fields)+room == 0 {
		return out
	}
	out.fields = make([]field, len(m.fields), len(m.fields)+room)
	copy(out.fields, m.fields)
	for i := range out.fields {
		if f := &out.fields[i]; f.sub != nil {
			f.sub = f.sub.clone(0)
		}
	}
	return out
}

// Format renders a human-readable dump of the message, with fields in sorted
// order; nested messages are rendered inline. Intended for debugging only.
func (m *Message) Format() string {
	s := "{"
	for i := range m.fields {
		if i > 0 {
			s += ", "
		}
		f := &m.fields[i]
		switch f.typ {
		case TypeBytes:
			s += fmt.Sprintf("%s=bytes[%d]", f.name, len(f.ref))
		case TypeString:
			s += fmt.Sprintf("%s=%q", f.name, f.ref)
		case TypeInt:
			s += fmt.Sprintf("%s=%d", f.name, int64(f.num))
		case TypeAddress:
			s += fmt.Sprintf("%s=%v", f.name, f.address())
		case TypeAddressList:
			s += fmt.Sprintf("%s=%v", f.name, f.addresses())
		case TypeMessage:
			s += fmt.Sprintf("%s=%s", f.name, f.sub.Format())
		}
	}
	return s + "}"
}
