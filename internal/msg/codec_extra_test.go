package msg

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/addr"
)

// sampleMessage builds a small packet-shaped message: a few scalar fields, a
// timestamp-like bytes field, and a nested payload — the shape of a CBCAST
// data packet.
func sampleMessage() *Message {
	payload := New().PutBytes("data", bytes.Repeat([]byte{7}, 64))
	return New().
		PutInt("&proto", 1).
		PutInt("&viewid", 3).
		PutInt("&msgseq", 42).
		PutAddress("&sender", addr.NewProcess(1, 0, 9)).
		PutBytes("&vt", []byte{0, 0, 0, 0, 0, 0, 0, 5}).
		PutMessage("&payload", payload)
}

// appendRawField hand-encodes one field, for crafting non-canonical inputs: an
// int's or an address's payload as given (a varint, 8 bytes), any other after
// its uvarint length.
func appendRawField(dst []byte, name string, typ FieldType, payload []byte) []byte {
	dst = append(binary.AppendUvarint(dst, uint64(len(name))), name...)
	dst = append(dst, byte(typ))
	if typ != TypeInt && typ != TypeAddress {
		dst = binary.AppendUvarint(dst, uint64(len(payload)))
	}
	return append(dst, payload...)
}

func TestUnmarshalUnsortedAndDuplicateFields(t *testing.T) {
	intPayload := func(v int64) []byte { return binary.AppendVarint(nil, v) }
	// Fields out of order: decoders must accept and re-sort.
	raw := binary.AppendUvarint(nil, 2)
	raw = appendRawField(raw, "zz", TypeInt, intPayload(1))
	raw = appendRawField(raw, "aa", TypeInt, intPayload(2))
	m, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.GetInt("aa", 0) != 2 || m.GetInt("zz", 0) != 1 {
		t.Errorf("unsorted decode wrong: %s", m.Format())
	}
	names := m.Names()
	if names[0] != "aa" || names[1] != "zz" {
		t.Errorf("fields not re-sorted: %v", names)
	}

	// Duplicate names: last value wins, like the historical map behaviour.
	raw = binary.AppendUvarint(nil, 2)
	raw = appendRawField(raw, "x", TypeInt, intPayload(1))
	raw = appendRawField(raw, "x", TypeInt, intPayload(7))
	m, err = Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 || m.GetInt("x", 0) != 7 {
		t.Errorf("duplicate decode wrong: %s", m.Format())
	}
}

// TestAppendMarshalWarmBufferZeroAllocs pins the send side's contract:
// marshalling into a buffer that is already large enough does not allocate,
// and produces the bytes Marshal does.
func TestAppendMarshalWarmBufferZeroAllocs(t *testing.T) {
	m := sampleMessage()
	buf := make([]byte, 0, m.MarshaledSize())

	var err error
	allocs := testing.AllocsPerRun(200, func() {
		buf, err = m.AppendMarshal(buf[:0])
		if err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("marshal into a warm buffer allocates %.1f times per run, want 0", allocs)
	}
	if fresh, _ := m.Marshal(); !bytes.Equal(buf, fresh) {
		t.Error("AppendMarshal and Marshal disagree")
	}
}

// ---------------------------------------------------------------------------
// Codec micro-benchmarks (the Figure 2 small-message regime).

func BenchmarkMarshal(b *testing.B) {
	m := sampleMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendMarshalWarmBuffer(b *testing.B) {
	m := sampleMessage()
	buf := make([]byte, 0, m.MarshaledSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = m.AppendMarshal(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	enc, err := sampleMessage().Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClone(b *testing.B) {
	m := sampleMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Clone()
	}
}
