package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/addr"
)

// Wire format (all integers big endian):
//
//	uint16  field count
//	repeated field, in ascending order of field name:
//	    uint8   name length      (names are limited to 255 bytes)
//	    bytes   name
//	    uint8   field type
//	    uint32  payload length
//	    bytes   payload
//
// Payload encodings:
//
//	bytes / string:  raw bytes
//	int:             8 bytes, two's complement
//	address:         addr.EncodedSize bytes
//	address list:    concatenation of addr.EncodedSize-byte addresses
//	message:         a nested marshalled message
//
// The format is self-describing enough for the paper's needs (nested
// messages, inspection by filters) while staying compact; a 10-byte user
// payload marshals to a few tens of bytes, matching the small-message regime
// of Figure 2.
//
// Encoding is deterministic: fields are written in sorted name order (the
// in-memory representation already keeps them sorted), so two structurally
// equal messages produce byte-identical encodings. Several tests and the
// stable-storage log rely on this, and it is what makes one encoding
// sharable across destinations: the daemon marshals a multicast data packet
// exactly once (straight into its enveloped buffer) and hands the same
// []byte to the transport for every destination site.
//
// Decoders accept fields in any order (defensively re-sorting), but only the
// sorted form is ever produced. A decode keeps the packet it is given and
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

// bufPool recycles encode scratch buffers. GetBuffer/PutBuffer expose it to
// the transport and protocol layers so hot-path encodes need not allocate.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuffer fetches a pooled scratch buffer. The returned slice has zero
// length and unspecified capacity; append to it and return it to the pool
// with PutBuffer when done.
func GetBuffer() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuffer returns a scratch buffer to the pool. The caller must not use
// the slice afterwards.
func PutBuffer(b *[]byte) {
	if b == nil || cap(*b) > 1<<20 {
		return // don't pool pathological buffers
	}
	bufPool.Put(b)
}

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
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.fields)))
	for i := range m.fields {
		f := &m.fields[i]
		if len(f.name) > math.MaxUint8 {
			return nil, fmt.Errorf("%w: %q", ErrNameTooLong, f.name)
		}
		dst = append(dst, byte(len(f.name)))
		dst = append(dst, f.name...)
		dst = append(dst, byte(f.typ))
		switch f.typ {
		case TypeBytes, TypeString, TypeAddressList:
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.ref)))
			dst = append(dst, f.ref...)
		case TypeInt:
			dst = binary.BigEndian.AppendUint32(dst, 8)
			dst = binary.BigEndian.AppendUint64(dst, f.num)
		case TypeAddress:
			dst = binary.BigEndian.AppendUint32(dst, addr.EncodedSize)
			dst = f.address().AppendEncoded(dst)
		case TypeMessage:
			dst = binary.BigEndian.AppendUint32(dst, uint32(f.sub.MarshaledSize()))
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
// type, and the length of an empty payload.
const minFieldBytes = 1 + 1 + 4

// The decoder reads a string — the packet it owns — so that names and values
// can be kept as substrings of it.

func beUint16(s string) uint16 { return uint16(s[0])<<8 | uint16(s[1]) }

func beUint32(s string) uint32 {
	return uint32(s[0])<<24 | uint32(s[1])<<16 | uint32(s[2])<<8 | uint32(s[3])
}

func beUint64(s string) uint64 { return uint64(beUint32(s))<<32 | uint64(beUint32(s[4:])) }

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
	if len(s) < 2 {
		return "", fmt.Errorf("%w: missing field count", ErrCorrupt)
	}
	n := int(beUint16(s))
	s = s[2:]
	if n*minFieldBytes > len(s) {
		// Checked before the table is sized: two bytes of input must not
		// command a 65535-slot allocation.
		return "", fmt.Errorf("%w: %d fields in %d bytes", ErrCorrupt, n, len(s))
	}
	m.fields = make([]field, 0, n+room)
	for i := 0; i < n; i++ {
		if len(s) < 1 {
			return "", fmt.Errorf("%w: truncated field name length", ErrCorrupt)
		}
		nameLen := int(s[0])
		s = s[1:]
		if len(s) < nameLen+1+4 {
			return "", fmt.Errorf("%w: truncated field header", ErrCorrupt)
		}
		name := s[:nameLen]
		typ := FieldType(s[nameLen])
		payloadLen := int(beUint32(s[nameLen+1:]))
		s = s[nameLen+5:]
		if len(s) < payloadLen {
			return "", fmt.Errorf("%w: truncated field payload", ErrCorrupt)
		}
		payload := s[:payloadLen]
		s = s[payloadLen:]

		if err := decodePayload(m.slot(name, typ), payload); err != nil {
			return "", err
		}
	}
	return s, nil
}

// decodePayload fills one field from its wire payload, a substring of the
// decoder's packet.
func decodePayload(f *field, payload string) error {
	switch f.typ {
	case TypeBytes, TypeString:
		f.ref = payload
	case TypeInt:
		if len(payload) != 8 {
			return fmt.Errorf("%w: int field %q has %d bytes", ErrCorrupt, f.name, len(payload))
		}
		f.num = beUint64(payload)
	case TypeAddress:
		if len(payload) < addr.EncodedSize {
			return fmt.Errorf("%w: %v", ErrCorrupt, addr.ErrShortAddress)
		}
		a := decodeAddress(payload)
		if a.Kind > addr.KindGroup {
			return fmt.Errorf("%w: %v", ErrCorrupt, addr.ErrBadKind)
		}
		f.kind, f.num = a.Kind, packAddress(a)
	case TypeAddressList:
		if len(payload)%addr.EncodedSize != 0 {
			return fmt.Errorf("%w: address list field %q has %d bytes", ErrCorrupt, f.name, len(payload))
		}
		for off := 3; off < len(payload); off += addr.EncodedSize {
			if addr.Kind(payload[off]) > addr.KindGroup {
				return fmt.Errorf("%w: %v", ErrCorrupt, addr.ErrBadKind)
			}
		}
		f.ref = payload
	case TypeMessage:
		f.sub = New()
		return f.sub.unmarshal(payload, 0)
	default:
		return fmt.Errorf("%w: unknown field type %d", ErrCorrupt, f.typ)
	}
	return nil
}

// MarshaledSize returns the number of bytes Marshal would produce. It is
// used by the simulated network to charge bandwidth without re-encoding, and
// by the encoder itself to pre-size buffers and nested payload lengths.
func (m *Message) MarshaledSize() int {
	size := 2
	for i := range m.fields {
		f := &m.fields[i]
		size += 1 + len(f.name) + 1 + 4
		switch f.typ {
		case TypeBytes, TypeString, TypeAddressList:
			size += len(f.ref)
		case TypeInt:
			size += 8
		case TypeAddress:
			size += addr.EncodedSize
		case TypeMessage:
			size += f.sub.MarshaledSize()
		}
	}
	return size
}
