package msg

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestPutGetBasicTypes(t *testing.T) {
	m := New()
	m.PutInt("count", 42)
	m.PutString("name", "emulsion")
	m.PutBytes("blob", []byte{1, 2, 3})
	a := addr.NewProcess(1, 0, 7)
	m.PutAddress("who", a)
	m.PutAddressList("dests", addr.List{a, addr.NewGroup(1, 0, 9)})

	if v, err := m.Int("count"); err != nil || v != 42 {
		t.Errorf("Int = %d, %v", v, err)
	}
	if v, err := m.String("name"); err != nil || v != "emulsion" {
		t.Errorf("String = %q, %v", v, err)
	}
	if v, err := m.Bytes("blob"); err != nil || !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v, %v", v, err)
	}
	if v, err := m.Address("who"); err != nil || v != a {
		t.Errorf("Address = %v, %v", v, err)
	}
	if v, err := m.AddressList("dests"); err != nil || len(v) != 2 {
		t.Errorf("AddressList = %v, %v", v, err)
	}
	if m.Len() != 5 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestMissingAndWrongType(t *testing.T) {
	m := New()
	m.PutInt("n", 1)
	if _, err := m.Int("absent"); !errors.Is(err, ErrNoField) {
		t.Errorf("missing field error = %v", err)
	}
	if _, err := m.String("n"); !errors.Is(err, ErrWrongType) {
		t.Errorf("wrong type error = %v", err)
	}
	if _, err := m.Bytes("absent"); !errors.Is(err, ErrNoField) {
		t.Errorf("missing bytes error = %v", err)
	}
	if _, err := m.Address("n"); !errors.Is(err, ErrWrongType) {
		t.Errorf("address wrong type error = %v", err)
	}
	if _, err := m.AddressList("n"); !errors.Is(err, ErrWrongType) {
		t.Errorf("address list wrong type error = %v", err)
	}
	if _, err := m.Message("n"); !errors.Is(err, ErrWrongType) {
		t.Errorf("message wrong type error = %v", err)
	}
}

func TestGetWithDefaults(t *testing.T) {
	m := New()
	m.PutInt("n", 5)
	if m.GetInt("n", 0) != 5 || m.GetInt("absent", 9) != 9 {
		t.Error("GetInt defaults wrong")
	}
	if m.GetString("absent", "d") != "d" {
		t.Error("GetString default wrong")
	}
	if m.GetBytes("absent") != nil {
		t.Error("GetBytes default wrong")
	}
	if !m.GetAddress("absent").IsNil() {
		t.Error("GetAddress default wrong")
	}
	if m.GetAddressList("absent") != nil {
		t.Error("GetAddressList default wrong")
	}
	if m.GetMessage("absent") != nil {
		t.Error("GetMessage default wrong")
	}
}

func TestPutBytesCopies(t *testing.T) {
	src := []byte{1, 2, 3}
	m := New().PutBytes("b", src)
	src[0] = 99
	got, _ := m.Bytes("b")
	if got[0] != 1 {
		t.Error("PutBytes did not copy its argument")
	}
}

func TestDeleteAndHasAndNames(t *testing.T) {
	m := New().PutInt("a", 1).PutInt("b", 2)
	if !m.Has("a") || m.Has("z") {
		t.Error("Has wrong")
	}
	m.Delete("a")
	if m.Has("a") || m.Len() != 1 {
		t.Error("Delete did not remove the field")
	}
	m.PutString("c", "x")
	names := m.Names()
	if len(names) != 2 || names[0] != "b" || names[1] != "c" {
		t.Errorf("Names = %v", names)
	}
}

func TestTypeQuery(t *testing.T) {
	m := New().PutInt("a", 1)
	typ, ok := m.Type("a")
	if !ok || typ != TypeInt {
		t.Errorf("Type = %v %v", typ, ok)
	}
	if _, ok := m.Type("absent"); ok {
		t.Error("Type found an absent field")
	}
}

func TestNestedMessage(t *testing.T) {
	inner := New().PutString("payload", "hello")
	outer := New().PutMessage("req", inner).PutInt("n", 1)
	got, err := outer.Message("req")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := got.String("payload"); s != "hello" {
		t.Errorf("nested payload = %q", s)
	}
}

func TestSystemFieldsAndStrip(t *testing.T) {
	for _, name := range []string{FSender, FSession, FProtocol, FViewID, FGroup, FReply} {
		if name[0] != SystemPrefix {
			t.Errorf("system field %q does not start with %q", name, SystemPrefix)
		}
	}
	a := addr.NewProcess(2, 0, 3)
	m := New().
		PutAddress(FSender, a).
		PutInt(FSession, 77).
		PutAddress(FGroup, addr.NewGroup(1, 0, 5)).
		PutString("user", "keep me")
	if m.Sender() != a || m.Session() != 77 || m.Group().IsNil() {
		t.Error("system accessors wrong")
	}
	// The system fields lead the table, follow a name that sorts before '@',
	// or are absent: the stripped encoding and clone are the user fields'.
	before := m.Clone().PutInt("!first", 1)
	for _, tc := range []struct{ m, user *Message }{
		{m, New().PutString("user", "keep me")},
		{before, New().PutInt("!first", 1).PutString("user", "keep me")},
		{New().PutInt("!first", 1), New().PutInt("!first", 1)},
	} {
		want, _ := tc.user.Marshal()
		clone, _ := tc.m.CloneStripped(0).Marshal()
		got, err := tc.m.AppendMarshalStripped([]byte{9})
		if err != nil || !bytes.Equal(got[1:], want) || got[0] != 9 || tc.m.MarshaledSizeStripped() != len(want) || !bytes.Equal(clone, want) {
			t.Errorf("%s: the stripped encoding is %x (err %v) in %d bytes, its clone's %x, want %x",
				tc.m.Format(), got, err, tc.m.MarshaledSizeStripped(), clone, want)
		}
	}
	c := before.CloneStripped(2)
	if c.Has(FSender) || c.Has(FSession) || c.Has(FGroup) || !before.Has(FSender) || !m.Has(FSender) {
		t.Error("CloneStripped kept reserved fields, or took them from the original")
	}
	if !slices.Equal(c.Names(), []string{"!first", "user"}) || cap(c.fields) != 4 {
		t.Errorf("CloneStripped(2) holds %v in a table of %d", c.Names(), cap(c.fields))
	}
}

func TestClone(t *testing.T) {
	inner := New().PutInt("x", 1)
	m := New().
		PutInt("i", 10).
		PutString("s", "str").
		PutBytes("b", []byte{4, 5}).
		PutAddress("a", addr.NewProcess(1, 0, 1)).
		PutAddressList("l", addr.List{addr.NewGroup(1, 0, 2)}).
		PutMessage("m", inner)
	c := m.Clone()
	// Mutating the clone must not affect the original.
	c.PutInt("i", 99)
	c.GetMessage("m").PutInt("x", 99)
	if m.GetInt("i", 0) != 10 {
		t.Error("Clone shares scalar fields")
	}
	if inner.GetInt("x", 0) != 1 {
		t.Error("Clone shares nested messages")
	}
	if c.Len() != m.Len() {
		t.Error("Clone lost fields")
	}
}

func TestFormat(t *testing.T) {
	m := New().
		PutInt("n", 3).
		PutString("s", "hi").
		PutBytes("b", []byte{1}).
		PutMessage("sub", New().PutInt("x", 1)).
		PutAddress("a", addr.NewProcess(1, 0, 1)).
		PutAddressList("l", addr.List{addr.NewProcess(1, 0, 2)})
	out := m.Format()
	for _, want := range []string{"n=3", `s="hi"`, "bytes[1]", "sub={x=1}"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() = %q missing %q", out, want)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	inner := New().PutString("q", "color=red").PutInt("mode", 2)
	m := New().
		PutInt("count", -17).
		PutString("name", "twenty").
		PutBytes("blob", []byte{0, 255, 7}).
		PutAddress("sender", addr.NewProcess(3, 1, 12)).
		PutAddressList("dests", addr.List{addr.NewGroup(1, 0, 5), addr.NewProcess(2, 0, 8)}).
		PutMessage("req", inner)
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.GetInt("count", 0) != -17 {
		t.Error("count field lost")
	}
	if got.GetString("name", "") != "twenty" {
		t.Error("name field lost")
	}
	if !bytes.Equal(got.GetBytes("blob"), []byte{0, 255, 7}) {
		t.Error("blob field lost")
	}
	if got.GetAddress("sender") != addr.NewProcess(3, 1, 12) {
		t.Error("sender field lost")
	}
	if l := got.GetAddressList("dests"); len(l) != 2 || l[0] != addr.NewGroup(1, 0, 5) {
		t.Error("dests field lost")
	}
	sub := got.GetMessage("req")
	if sub == nil || sub.GetString("q", "") != "color=red" || sub.GetInt("mode", 0) != 2 {
		t.Error("nested message lost")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	m := New().PutInt("b", 2).PutInt("a", 1).PutString("c", "x")
	b1, err1 := m.Marshal()
	b2, err2 := m.Marshal()
	if err1 != nil || err2 != nil || !bytes.Equal(b1, b2) {
		t.Error("Marshal is not deterministic")
	}
}

func TestMarshaledSizeMatches(t *testing.T) {
	m := New().
		PutInt("i", 1).
		PutString("s", "hello").
		PutBytes("b", make([]byte, 100)).
		PutAddress("a", addr.NewProcess(1, 0, 1)).
		PutAddressList("l", addr.List{addr.NewProcess(1, 0, 2), addr.NewProcess(1, 0, 3)}).
		PutMessage("m", New().PutInt("x", 5))
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if m.MarshaledSize() != len(b) {
		t.Errorf("MarshaledSize = %d, actual = %d", m.MarshaledSize(), len(b))
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := [][]byte{
		{},                                   // missing count
		{1},                                  // one field promised, nothing present
		{1, 3, 'a'},                          // truncated name
		{1, 1, 'a', 99, 0},                   // unknown type
		{1, 1, 'a', byte(TypeInt), 0x80},     // int cut inside its varint
		{1, 1, 'a', byte(TypeAddress), 1, 2}, // short address
		{1, 1, 'a', byte(TypeAddressList), 3, 1, 2, 3},                                            // bad list length
		{1, 1, 'a', byte(TypeBytes), 4, 1, 2, 3},                                                  // payload past the end
		{1, 1, 'a', byte(TypeInt), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0}, // 11-byte varint
		append([]byte{1, 0x80, 2}, append(bytes.Repeat([]byte{'a'}, 256), byte(TypeInt), 0)...),   // a name too long to marshal
	}
	for i, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("case %d: Unmarshal accepted corrupt input", i)
		}
	}
	// Trailing garbage after a valid message.
	good, _ := New().PutInt("x", 1).Marshal()
	if _, err := Unmarshal(append(good, 0xFF)); err == nil {
		t.Error("Unmarshal accepted trailing garbage")
	}
}

func TestMarshalNameTooLong(t *testing.T) {
	m := New().PutInt(strings.Repeat("x", 300), 1)
	if _, err := m.Marshal(); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("err = %v, want ErrNameTooLong", err)
	}
}

// Property: marshal/unmarshal round-trips arbitrary string and byte fields.
func TestMarshalProperty(t *testing.T) {
	f := func(s string, b []byte, n int64) bool {
		if len(s) > 200 {
			s = s[:200]
		}
		m := New().PutString("s", s).PutBytes("b", b).PutInt("n", n)
		enc, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(enc)
		if err != nil {
			return false
		}
		gb := got.GetBytes("b")
		return got.GetString("s", "?") == s &&
			got.GetInt("n", n+1) == n &&
			(len(gb) == len(b)) && bytes.Equal(gb, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Values are immutable once stored and clones share them, so no mutation of
// one message may show through another.
func TestCloneSharesNothingMutable(t *testing.T) {
	orig := New().PutBytes("b", []byte("original")).PutString("s", "text").
		PutAddressList("l", addr.List{addr.NewProcess(1, 0, 1)}).
		PutMessage("sub", New().PutBytes("b", []byte("nested")))
	want, _ := orig.Marshal()
	c := orig.Clone()

	c.PutBytes("b", []byte("replaced"))
	c.PutString("s", "other")
	c.PutAddressList("l", nil)
	c.GetMessage("sub").PutBytes("b", []byte("changed")).PutInt("extra", 1)
	c.Delete("s")
	c.PutInt("@new", 1)
	if got, _ := orig.Marshal(); !bytes.Equal(got, want) {
		t.Errorf("mutating a clone changed the original: %s", orig.Format())
	}

	c = orig.Clone()
	cwant, _ := c.Marshal()
	orig.PutBytes("b", []byte("xx")).GetMessage("sub").PutBytes("b", nil)
	orig.Delete("l")
	if got, _ := c.Marshal(); !bytes.Equal(got, cwant) {
		t.Errorf("mutating the original changed its clone: %s", c.Format())
	}

	l := c.GetAddressList("l")
	l[0] = addr.NewGroup(9, 9, 9)
	if c.GetAddressList("l")[0] != addr.NewProcess(1, 0, 1) {
		t.Error("GetAddressList handed out the message's own storage")
	}
}

// The caller may reuse the buffer it put or decoded from.
func TestInputBuffersAreCopied(t *testing.T) {
	in := []byte("payload")
	m := New().PutBytes("b", in).PutBytes("one", in[:1])
	enc, _ := m.Marshal()
	dec, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	clear(in)
	clear(enc)
	for _, got := range []*Message{m, dec} {
		if string(got.GetBytes("b")) != "payload" || string(got.GetBytes("one")) != "p" || !got.Has("one") {
			t.Errorf("message changed with its input buffer: %s", got.Format())
		}
	}
}

// TestOwningDecodeKeepsItsBuffer is the other half of the ownership rule: the
// owning decode reads the same message as Unmarshal, out of the buffer it was
// given — which is why that buffer is never written again — and what a caller
// takes out of it to write into (GetBytes) is a copy.
func TestOwningDecodeKeepsItsBuffer(t *testing.T) {
	m := New().PutBytes("b", []byte("payload")).PutString("s", "text").
		PutAddressList("l", addr.List{addr.NewProcess(1, 0, 2)}).
		PutMessage("sub", New().PutBytes("b", []byte("nested")))
	enc, _ := m.Marshal()
	want := bytes.Clone(enc)
	dec, err := UnmarshalOwned(enc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := dec.Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("owning decode read %x, want %x", got, want)
	}
	if c := cap(dec.fields); c != dec.Len()+2 {
		t.Errorf("table has %d slots for %d fields and room for 2", c, dec.Len())
	}
	// aliases reports whether v is the place in enc where text sits.
	aliases := func(v []byte, text string) bool { return &v[0] == &enc[bytes.Index(enc, []byte(text))] }
	if !aliases(dec.BytesView("b"), "payload") || !aliases(dec.GetMessage("sub").BytesView("b"), "nested") {
		t.Error("the owning decode copied a value out of its buffer")
	}
	got := dec.GetBytes("b")
	if aliases(got, "payload") {
		t.Fatal("GetBytes handed out the decoder's buffer")
	}
	clear(got)
	if !bytes.Equal(enc, want) || string(dec.BytesView("b")) != "payload" {
		t.Error("writing to a GetBytes copy reached the decoded packet")
	}
	if _, err := UnmarshalOwned(nil, 0); err == nil {
		t.Error("an empty buffer decoded")
	}
}

func TestAddressPackingIsLossless(t *testing.T) {
	for _, a := range []addr.Address{
		addr.Nil,
		addr.NewProcess(0xffff, 0xff, 0xffffffff).WithEntry(0xff),
		addr.NewGroup(1, 2, 1<<24), // beyond the 24 bits the wire carries
		addr.NewProcess(7, 0, 3).WithEntry(addr.EntryUserBase),
	} {
		if got := New().PutAddress("a", a).GetAddress("a"); got != a {
			t.Errorf("PutAddress/GetAddress: got %v, want %v", got, a)
		}
	}
}
