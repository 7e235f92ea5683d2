package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/addr"
)

// Wire format: every integer is a minimal varint (encoding/binary's
// uvarint, or its zigzag varint for an int) and every length word a uvarint.
//
//	uvarint  field count
//	repeated field, in ascending order of field name:
//	    uvarint  name length    (names are limited to 255 bytes)
//	    bytes    name
//	    uint8    field type
//	    payload, by type:
//	        bytes / string:  uvarint length, the raw bytes
//	        int:             zigzag varint
//	        address:         addr.EncodedSize bytes
//	        address list:    uvarint length, the addr.EncodedSize-byte addresses
//	        message:         uvarint length, a nested marshalled message
//
// Beside its name, a field spends three bytes on its head (name length,
// type, length word) for a name and a payload under 128 bytes; an int has no
// length word, and under 64 in magnitude takes three bytes with its value. A
// 10-byte user payload marshals to a few tens of bytes, the small-message
// regime of Figure 2.
//
// Encoding is deterministic: fields are written in sorted name order (the
// in-memory representation already keeps them sorted) and every varint is
// minimal, so two structurally equal messages produce byte-identical
// encodings. Several tests and the stable-storage log rely on this, and it is
// what makes one encoding sharable across destinations: the daemon marshals a
// multicast data packet exactly once (straight into its enveloped buffer) and
// hands the same []byte to the transport for every destination site.
//
// Decoders accept fields in any order (defensively re-sorting) and varints
// that are longer than they need be, but only the sorted, minimal form is
// ever produced. A decode keeps the packet it is given and
// points every field name and variable-length value into it, so it allocates
// the message and its exact-size field table (the count is on the wire) —
// plus a message and table per nested message. Unmarshal, for callers that
// keep their buffer, adds the one private copy.

// Marshalling errors.
var (
	ErrNameTooLong = errors.New("msg: field name longer than 255 bytes")
	ErrCorrupt     = errors.New("msg: corrupt message encoding")
	ErrTooManyFlds = errors.New("msg: too many fields")
)

// maxFields bounds the field count in one message.
const maxFields = math.MaxUint16

// encodeCalls counts wire encodings. Tests use it to assert that a multicast
// packet fanned out to N destinations is marshalled exactly once.
var encodeCalls atomic.Uint64

// EncodeCount returns the number of times a message encoding has actually
// been computed process-wide. The fan-out tests snapshot it around a
// multicast to verify the marshal-once property.
func EncodeCount() uint64 { return encodeCalls.Load() }

// Marshal encodes the message into a fresh byte slice owned by the caller.
func (m *Message) Marshal() ([]byte, error) {
	return m.AppendMarshal(nil)
}

// AppendMarshal appends the encoding of m to dst and returns the extended
// slice. Given sufficient capacity in dst it does not allocate.
func (m *Message) AppendMarshal(dst []byte) ([]byte, error) {
	encodeCalls.Add(1)
	if dst == nil {
		dst = make([]byte, 0, m.MarshaledSize())
	}
	return m.appendTo(dst)
}

// AppendMarshalStripped is AppendMarshal of m without its system fields, in
// MarshaledSizeStripped bytes: the encoding of m.CloneStripped(0).
func (m *Message) AppendMarshalStripped(dst []byte) ([]byte, error) {
	s := m.stripped()
	return s.AppendMarshal(dst)
}

// CachedMarshal is Marshal. There is no encoding cache: the daemon marshals
// a multicast packet once and shares the bytes itself. The name remains only
// because bench/layers.go compiles against it.
func (m *Message) CachedMarshal() ([]byte, error) { return m.Marshal() }

// appendTo is the recursive encoder. Payloads are appended directly (their
// sizes are known up front), so no intermediate buffers are built even for
// nested messages.
func (m *Message) appendTo(dst []byte) ([]byte, error) {
	if len(m.fields) > maxFields {
		return nil, ErrTooManyFlds
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.fields)))
	for i := range m.fields {
		f := &m.fields[i]
		if len(f.name) > math.MaxUint8 {
			return nil, fmt.Errorf("%w: %q", ErrNameTooLong, f.name)
		}
		dst = append(binary.AppendUvarint(dst, uint64(len(f.name))), f.name...)
		dst = append(dst, byte(f.typ))
		switch f.typ {
		case TypeBytes, TypeString, TypeAddressList:
			dst = append(binary.AppendUvarint(dst, uint64(len(f.ref))), f.ref...)
		case TypeInt:
			dst = binary.AppendVarint(dst, int64(f.num))
		case TypeAddress:
			dst = f.address().AppendEncoded(dst)
		case TypeMessage:
			dst = binary.AppendUvarint(dst, uint64(f.sub.MarshaledSize()))
			var err error
			dst, err = f.sub.appendTo(dst)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("msg: cannot marshal field %q of type %v", f.name, f.typ)
		}
	}
	return dst, nil
}

// UnmarshalOwned decodes a message from b, all of which must be consumed, and
// keeps b: names and variable-length values are substrings of it, so b (a
// received frame, say) must never be written again. The decoded table has
// room for room more fields.
func UnmarshalOwned(b []byte, room int) (*Message, error) {
	m := New()
	if err := m.unmarshal(frozen(b), room); err != nil {
		return nil, err
	}
	return m, nil
}

// Unmarshal is UnmarshalOwned of a private copy of b, for callers that keep
// their buffer.
func Unmarshal(b []byte) (*Message, error) { return UnmarshalOwned(bytes.Clone(b), 0) }

// UnmarshalInto replaces m's fields with a plain decode of b, exactly as
// Unmarshal fills a new message: the decode starts a new table, so nothing m
// held is reused. On error m may hold a partial decode. The name remains only
// because bench/layers.go compiles against it.
func UnmarshalInto(m *Message, b []byte) error { return m.unmarshal(string(b), 0) }

// unmarshal decodes all of s, a packet the decoder owns, into m.
func (m *Message) unmarshal(s string, room int) error {
	rest, err := m.unmarshalPrefix(s, room)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return nil
}

// minFieldBytes is the shortest encoding of one field: an empty name, the
// type, and an int's one-byte varint.
const minFieldBytes = 1 + 1 + 1

// The decoder reads a string — the packet it owns — so that names and values
// can be kept as substrings of it.

func beUint16(s string) uint16 { return uint16(s[0])<<8 | uint16(s[1]) }

// decodeAddress reads an address from the first addr.EncodedSize bytes of s,
// without checking its kind.
func decodeAddress(s string) addr.Address {
	return addr.Address{
		Site:    addr.SiteID(beUint16(s)),
		Incarn:  addr.Incarnation(s[2]),
		Kind:    addr.Kind(s[3]),
		Entry:   addr.EntryID(s[4]),
		LocalID: uint32(s[5])<<16 | uint32(s[6])<<8 | uint32(s[7]),
	}
}

// unmarshalPrefix decodes one message from the front of s into m and returns
// the remainder. Fields go in by sorted insertion, which appends while the
// incoming names ascend and also handles adversarial inputs whose fields are
// unsorted or duplicated.
func (m *Message) unmarshalPrefix(s string, room int) (string, error) {
	n, k := binary.Uvarint(view(s)) // k <= 0: cut short, or past 64 bits
	if k <= 0 {
		return "", fmt.Errorf("%w: missing field count", ErrCorrupt)
	}
	if s = s[k:]; n > maxFields || n*minFieldBytes > uint64(len(s)) {
		// Checked before the table is sized: a few bytes of input must not
		// command a large allocation.
		return "", fmt.Errorf("%w: %d fields in %d bytes", ErrCorrupt, n, len(s))
	}
	m.fields = make([]field, 0, int(n)+room)
	for i := uint64(0); i < n; i++ {
		nameLen, k := binary.Uvarint(view(s))
		if k <= 0 || nameLen > math.MaxUint8 || nameLen >= uint64(len(s)-k) {
			return "", fmt.Errorf("%w: truncated field header", ErrCorrupt)
		}
		name, typ := s[k:k+int(nameLen)], FieldType(s[k+int(nameLen)])
		var err error
		if s, err = decodePayload(m.slot(name, typ), s[k+int(nameLen)+1:]); err != nil {
			return "", err
		}
	}
	return s, nil
}

// decodePayload fills one field from the front of s, the rest of the
// decoder's packet, and returns what follows the field.
func decodePayload(f *field, s string) (string, error) {
	switch f.typ {
	case TypeInt:
		v, n := binary.Varint(view(s))
		if n <= 0 {
			return "", fmt.Errorf("%w: int field %q is not a varint", ErrCorrupt, f.name)
		}
		f.num = uint64(v)
		return s[n:], nil
	case TypeAddress:
		if len(s) < addr.EncodedSize {
			return "", fmt.Errorf("%w: %v", ErrCorrupt, addr.ErrShortAddress)
		}
		a := decodeAddress(s)
		if a.Kind > addr.KindGroup {
			return "", fmt.Errorf("%w: %v", ErrCorrupt, addr.ErrBadKind)
		}
		f.kind, f.num = a.Kind, packAddress(a)
		return s[addr.EncodedSize:], nil
	}
	size, k := binary.Uvarint(view(s))
	if k <= 0 || size > uint64(len(s)-k) {
		return "", fmt.Errorf("%w: truncated field payload", ErrCorrupt)
	}
	payload, rest := s[k:k+int(size)], s[k+int(size):]
	switch f.typ {
	case TypeBytes, TypeString:
		f.ref = payload
	case TypeAddressList:
		if len(payload)%addr.EncodedSize != 0 {
			return "", fmt.Errorf("%w: address list field %q has %d bytes", ErrCorrupt, f.name, len(payload))
		}
		for off := 3; off < len(payload); off += addr.EncodedSize {
			if addr.Kind(payload[off]) > addr.KindGroup {
				return "", fmt.Errorf("%w: %v", ErrCorrupt, addr.ErrBadKind)
			}
		}
		f.ref = payload
	case TypeMessage:
		f.sub = New()
		return rest, f.sub.unmarshal(payload, 0)
	default:
		return "", fmt.Errorf("%w: unknown field type %d", ErrCorrupt, f.typ)
	}
	return rest, nil
}

// MarshaledSize returns the number of bytes Marshal would produce. It is
// used by the simulated network to charge bandwidth without re-encoding, and
// by the encoder itself to pre-size buffers and nested payload lengths.
func (m *Message) MarshaledSize() int {
	size := uvarintLen(uint64(len(m.fields)))
	for i := range m.fields {
		f := &m.fields[i]
		size += uvarintLen(uint64(len(f.name))) + len(f.name) + 1
		switch f.typ {
		case TypeBytes, TypeString, TypeAddressList:
			size += uvarintLen(uint64(len(f.ref))) + len(f.ref)
		case TypeInt:
			size += uvarintLen(uint64(int64(f.num)<<1 ^ int64(f.num)>>63))
		case TypeAddress:
			size += addr.EncodedSize
		case TypeMessage:
			n := f.sub.MarshaledSize()
			size += uvarintLen(uint64(n)) + n
		}
	}
	return size
}

// MarshaledSizeStripped is the length of AppendMarshalStripped's encoding.
func (m *Message) MarshaledSizeStripped() int {
	s := m.stripped()
	return s.MarshaledSize()
}

// uvarintLen is the length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
