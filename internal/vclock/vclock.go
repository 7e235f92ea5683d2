package vclock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// VC is a vector clock indexed by member rank. The zero value (nil) is a
// valid all-zeros clock of length zero.
type VC []uint64

// New returns an all-zero clock with n entries.
func New(n int) VC { return make(VC, n) }

// Len returns the number of entries.
func (v VC) Len() int { return len(v) }

// Get returns entry i, treating out-of-range indices as zero so that clocks
// from slightly shorter views compare sensibly during view changes.
func (v VC) Get(i int) uint64 {
	if i < 0 || i >= len(v) {
		return 0
	}
	return v[i]
}

// Clone returns a copy of v.
func (v VC) Clone() VC {
	if v == nil {
		return nil
	}
	out := make(VC, len(v))
	copy(out, v)
	return out
}

// Resize returns a clock with exactly n entries, preserving existing values
// and zero-filling new ones. The receiver is not modified.
func (v VC) Resize(n int) VC {
	out := make(VC, n)
	copy(out, v)
	return out
}

// Tick increments entry i in place, growing the clock if necessary, and
// returns the clock.
func (v *VC) Tick(i int) VC {
	if i >= len(*v) {
		*v = v.Resize(i + 1)
	}
	(*v)[i]++
	return *v
}

// Merge sets each entry of v to the max of v and o, growing v if needed, and
// returns the merged clock.
func (v *VC) Merge(o VC) VC {
	if len(o) > len(*v) {
		*v = v.Resize(len(o))
	}
	for i, x := range o {
		if x > (*v)[i] {
			(*v)[i] = x
		}
	}
	return *v
}

// Equal reports whether v and o represent the same timestamp (trailing
// zeros ignored).
func (v VC) Equal(o VC) bool {
	n := len(v)
	if len(o) > n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if v.Get(i) != o.Get(i) {
			return false
		}
	}
	return true
}

// LE reports whether v ≤ o pointwise (v happened-before-or-equal o).
func (v VC) LE(o VC) bool {
	n := len(v)
	if len(o) > n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if v.Get(i) > o.Get(i) {
			return false
		}
	}
	return true
}

// Before reports whether v happened strictly before o: v ≤ o and v ≠ o.
func (v VC) Before(o VC) bool { return v.LE(o) && !v.Equal(o) }

// Concurrent reports whether neither clock happened before the other.
func (v VC) Concurrent(o VC) bool { return !v.LE(o) && !o.LE(v) }

// Deliverable implements the CBCAST delivery condition. A message stamped
// with timestamp ts by the sender at rank senderRank is deliverable at a
// process whose current clock is v when:
//
//	ts[senderRank] == v[senderRank] + 1          (next message from sender)
//	ts[k] <= v[k] for every k != senderRank      (all causal predecessors seen)
//
// This is the standard causal-delivery predicate; the sender increments its
// own entry immediately before sending.
func (v VC) Deliverable(ts VC, senderRank int) bool {
	n := len(v)
	if len(ts) > n {
		n = len(ts)
	}
	for k := 0; k < n; k++ {
		tk, vk := ts.Get(k), v.Get(k)
		if k == senderRank {
			if tk != vk+1 {
				return false
			}
			continue
		}
		if tk > vk {
			return false
		}
	}
	return true
}

// String renders the clock as "[a b c]".
func (v VC) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Encode flattens the clock for inclusion in a message field.
func (v VC) Encode() []byte {
	return v.AppendEncode(make([]byte, 0, binary.MaxVarintLen64*(len(v)+1)))
}

// AppendEncode appends the wire form of v to dst, the entry count and then
// each entry as uvarints, and returns the extended slice. Given sufficient
// capacity it does not allocate, which is what the multicast hot path relies
// on when stamping packets from pooled scratch.
func (v VC) AppendEncode(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.AppendUvarint(dst, x)
	}
	return dst
}

// Decode parses a clock previously produced by Encode. Bytes left over are an
// error; an empty encoding is the empty clock.
func Decode(b []byte) (VC, error) {
	return DecodeInto(nil, b)
}

// DecodeInto parses a clock from all of b into dst's storage, growing dst
// only when its capacity is insufficient, and returns the decoded clock.
// Decoding a stream of same-width timestamps into a recycled clock does not
// allocate.
func DecodeInto(dst VC, b []byte) (VC, error) {
	if len(b) == 0 {
		return dst[:0], nil
	}
	v, rest, err := DecodePrefix(dst, b)
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("vclock: %d bytes after the clock", len(rest))
	}
	return v, err
}

// DecodePrefix is DecodeInto of the clock at the front of b, for a clock that
// other fields follow; it returns what follows the clock.
func DecodePrefix(dst VC, b []byte) (VC, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) { // every entry takes at least a byte
		return nil, nil, errMalformed
	}
	dst, b = slices.Grow(dst[:0], int(n))[:n], b[k:]
	for i := range dst {
		if len(b) > 0 && b[0] < 0x80 { // the value itself
			dst[i], k = uint64(b[0]), 1
		} else if dst[i], k = binary.Uvarint(b); k <= 0 {
			return nil, nil, errMalformed
		}
		b = b[k:]
	}
	return dst, b, nil
}

var errMalformed = errors.New("vclock: encoding cut short or malformed")
