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

func TestCachedMarshalSharedUntilMutation(t *testing.T) {
	m := sampleMessage()
	before := EncodeCount()
	b1, err := m.CachedMarshal()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m.CachedMarshal()
	if err != nil {
		t.Fatal(err)
	}
	if EncodeCount()-before != 1 {
		t.Errorf("two CachedMarshal calls encoded %d times, want 1", EncodeCount()-before)
	}
	if &b1[0] != &b2[0] {
		t.Error("CachedMarshal did not return the shared cached slice")
	}
	// The cached encoding must equal a fresh Marshal.
	fresh, _ := m.Marshal()
	if !bytes.Equal(b1, fresh) {
		t.Error("cached encoding differs from fresh Marshal")
	}

	// Mutating the message invalidates the cache.
	m.PutInt("&extra", 1)
	b3, err := m.CachedMarshal()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, b3) {
		t.Error("cache not invalidated by mutation")
	}

	// Mutating a *nested* message must also invalidate the parent's cache.
	m.GetMessage("&payload").PutInt("late", 9)
	b4, err := m.CachedMarshal()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b3, b4) {
		t.Error("cache not invalidated by nested mutation")
	}
	if got, _ := Unmarshal(b4); got.GetMessage("&payload").GetInt("late", 0) != 9 {
		t.Error("nested mutation missing from re-encoded cache")
	}
}

func TestUnmarshalIntoReusesStorage(t *testing.T) {
	enc, err := sampleMessage().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dst := New()
	if err := UnmarshalInto(dst, enc); err != nil {
		t.Fatal(err)
	}
	vtBefore := dst.BytesView("&vt")
	if err := UnmarshalInto(dst, enc); err != nil {
		t.Fatal(err)
	}
	vtAfter := dst.BytesView("&vt")
	if &vtBefore[0] != &vtAfter[0] {
		t.Error("same-shape re-decode did not reuse the bytes field storage")
	}
	re, _ := dst.Marshal()
	if !bytes.Equal(re, enc) {
		t.Error("re-decode corrupted the message")
	}
}

// Whatever left a scratch message before a re-decode — strings, byte copies,
// clones — must not change when the message's buffer is overwritten.
func TestUnmarshalIntoLeavesEarlierReadersAlone(t *testing.T) {
	build := func(v string) []byte {
		enc, _ := New().PutBytes("b", []byte(v)).PutString("s", v).
			PutMessage("n", New().PutString("t", v)).Marshal()
		return enc
	}
	first, second := build("first"), build("other")
	dst := New()
	if err := UnmarshalInto(dst, first); err != nil {
		t.Fatal(err)
	}
	str, by, names, clone := dst.GetString("s", ""), dst.GetBytes("b"), dst.Names(), dst.Clone()
	inner := dst.GetMessage("n").GetString("t", "")
	if err := UnmarshalInto(dst, second); err != nil {
		t.Fatal(err)
	}
	if str != "first" || string(by) != "first" || inner != "first" || names[0] != "b" || names[2] != "s" {
		t.Errorf("re-decode changed values read earlier: %q %q %q %v", str, by, inner, names)
	}
	if got, _ := clone.Marshal(); !bytes.Equal(got, first) {
		t.Errorf("re-decode changed an earlier clone: %s", clone.Format())
	}
	if got, _ := dst.Marshal(); !bytes.Equal(got, second) {
		t.Errorf("re-decode produced %s", dst.Format())
	}
}

// A re-decode whose names sit where the previous packet's did, but out of
// order, must not be taken for the same shape.
func TestUnmarshalIntoSameLayoutUnsorted(t *testing.T) {
	sorted, _ := New().PutInt("a", 1).PutInt("b", 2).Marshal()
	swapped := bytes.Clone(sorted)
	ia, ib := bytes.IndexByte(swapped, 'a'), bytes.IndexByte(swapped, 'b')
	swapped[ia], swapped[ib] = 'b', 'a'
	dst := New()
	for _, enc := range [][]byte{sorted, swapped, sorted, swapped} {
		if err := UnmarshalInto(dst, enc); err != nil {
			t.Fatal(err)
		}
	}
	if dst.GetInt("a", 0) != 2 || dst.GetInt("b", 0) != 1 || dst.Names()[0] != "a" {
		t.Errorf("unsorted re-decode: %s", dst.Format())
	}
}

func TestUnmarshalIntoShapeChange(t *testing.T) {
	a, _ := New().PutInt("a", 1).PutInt("b", 2).PutInt("c", 3).Marshal()
	b, _ := New().PutInt("a", 9).PutString("z", "tail").Marshal()
	dst := New()
	if err := UnmarshalInto(dst, a); err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalInto(dst, b); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 2 || dst.GetInt("a", 0) != 9 || dst.GetString("z", "") != "tail" {
		t.Errorf("shape change decoded wrong: %s", dst.Format())
	}
	if dst.Has("b") || dst.Has("c") {
		t.Error("stale fields survived a narrowing decode")
	}
	// Widening back also works.
	if err := UnmarshalInto(dst, a); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 3 || dst.GetInt("c", 0) != 3 {
		t.Errorf("widening decode wrong: %s", dst.Format())
	}
}

// appendRawField hand-encodes one field, for crafting non-canonical inputs.
func appendRawField(dst []byte, name string, typ FieldType, payload []byte) []byte {
	dst = append(dst, byte(len(name)))
	dst = append(dst, name...)
	dst = append(dst, byte(typ))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

func TestUnmarshalUnsortedAndDuplicateFields(t *testing.T) {
	intPayload := func(v int64) []byte {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v))
		return b[:]
	}
	// Fields out of order: decoders must accept and re-sort.
	raw := binary.BigEndian.AppendUint16(nil, 2)
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
	raw = binary.BigEndian.AppendUint16(nil, 2)
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

// TestPooledRoundTripZeroAllocs is the allocation regression test promised by
// the hot-path overhaul: a pooled Marshal/Unmarshal round trip of a small
// message must not allocate once the scratch buffer and the receiving
// message are warm.
func TestPooledRoundTripZeroAllocs(t *testing.T) {
	m := sampleMessage()
	buf := GetBuffer()
	defer PutBuffer(buf)
	dst := New()

	var err error
	allocs := testing.AllocsPerRun(200, func() {
		*buf, err = m.AppendMarshal((*buf)[:0])
		if err != nil {
			panic(err)
		}
		if err = UnmarshalInto(dst, *buf); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("pooled round trip allocates %.1f times per run, want 0", allocs)
	}
	if dst.GetInt("&msgseq", 0) != 42 {
		t.Error("round trip lost data")
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

func BenchmarkCachedMarshalHit(b *testing.B) {
	m := sampleMessage()
	if _, err := m.CachedMarshal(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.CachedMarshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendMarshalPooled(b *testing.B) {
	m := sampleMessage()
	buf := GetBuffer()
	defer PutBuffer(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		*buf, err = m.AppendMarshal((*buf)[:0])
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

func BenchmarkUnmarshalInto(b *testing.B) {
	enc, err := sampleMessage().Marshal()
	if err != nil {
		b.Fatal(err)
	}
	dst := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := UnmarshalInto(dst, enc); err != nil {
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
