package msg

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/addr"
)

// FuzzCodecRoundTrip feeds arbitrary bytes to the decoder. Inputs the
// decoder accepts must re-marshal successfully, and the re-marshalled form
// must be a fixed point (canonical: sorted fields, duplicates collapsed). The
// owning decode, given its own copy of the input, must say what Unmarshal
// says: the same message or the same error.
func FuzzCodecRoundTrip(f *testing.F) {
	seed := func(m *Message) {
		enc, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		if len(enc) > 3 {
			f.Add(enc[:len(enc)-3]) // truncated input
		}
	}
	seed(New())
	seed(New().PutInt("n", -1).PutString("s", "x"))
	seed(New().PutAddressList("empty", addr.List{}))
	seed(New().
		PutBytes("b", []byte{1, 2, 3}).
		PutAddress("a", addr.NewProcess(3, 1, 7)).
		PutAddressList("l", addr.List{addr.NewGroup(1, 0, 5), addr.NewProcess(2, 0, 8)}).
		PutMessage("sub", New().PutMessage("subsub", New().PutInt("deep", 9))))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 'a', 99, 0, 0, 0, 0})
	// Non-canonical inputs the encoder never produces: fields out of order,
	// a name repeated (in the top-level and in a nested message), and the
	// reserved names every packet repeats.
	i64 := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	raw := binary.BigEndian.AppendUint16(nil, 3)
	raw = appendRawField(raw, "zz", TypeInt, i64(1))
	raw = appendRawField(raw, "aa", TypeBytes, []byte{1, 2, 3})
	raw = appendRawField(raw, "mm", TypeString, []byte("s"))
	f.Add(raw)
	dup := binary.BigEndian.AppendUint16(nil, 3)
	dup = appendRawField(dup, "x", TypeInt, i64(1))
	dup = appendRawField(dup, "x", TypeBytes, []byte("later wins"))
	dup = appendRawField(dup, "a", TypeInt, i64(2))
	f.Add(dup)
	nested := binary.BigEndian.AppendUint16(nil, 2)
	nested = appendRawField(nested, "sub", TypeMessage, dup)
	nested = appendRawField(nested, "sub", TypeMessage, raw)
	f.Add(nested)
	seed(New().PutAddress(FSender, addr.NewProcess(1, 0, 0xffffff)).PutInt(FSession, 7).
		PutAddress(FGroup, addr.NewGroup(2, 3, 4)).PutInt(FViewID, 9).PutInt(FProtocol, 2).PutInt(FReply, 1).
		PutMessage("&payload", New().PutInt(FSession, 7)))
	f.Add(binary.BigEndian.AppendUint16(nil, 0xffff)) // a count the input cannot hold

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		owned, oerr := UnmarshalOwned(bytes.Clone(data), 3)
		if (err == nil) != (oerr == nil) || (err != nil && err.Error() != oerr.Error()) {
			t.Fatalf("Unmarshal says %v, UnmarshalOwned %v", err, oerr)
		}
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		enc, err := m.Marshal()
		if err != nil {
			t.Fatalf("accepted message failed to marshal: %v", err)
		}
		if oenc, err := owned.Marshal(); err != nil || !bytes.Equal(enc, oenc) {
			t.Fatalf("the owning decode read another message (%v):\n copying: %x\n  owning: %x", err, enc, oenc)
		}
		m2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		enc2, err := m2.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not canonical:\n first: %x\nsecond: %x", enc, enc2)
		}
	})
}
