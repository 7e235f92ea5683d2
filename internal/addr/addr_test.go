package addr

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNil:     "nil",
		KindProcess: "proc",
		KindGroup:   "group",
		Kind(9):     "kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestNilAddress(t *testing.T) {
	if !Nil.IsNil() {
		t.Fatal("Nil.IsNil() = false")
	}
	a := NewProcess(1, 0, 7)
	if a.IsNil() {
		t.Fatal("process address reported nil")
	}
	if Nil.String() != "addr(nil)" {
		t.Fatalf("Nil.String() = %q", Nil.String())
	}
}

func TestProcessAndGroupConstructors(t *testing.T) {
	p := NewProcess(3, 2, 99)
	if !p.IsProcess() || p.IsGroup() {
		t.Errorf("NewProcess kind wrong: %+v", p)
	}
	g := NewGroup(3, 2, 100)
	if !g.IsGroup() || g.IsProcess() {
		t.Errorf("NewGroup kind wrong: %+v", g)
	}
	if p.Site != 3 || p.Incarn != 2 || p.LocalID != 99 {
		t.Errorf("NewProcess fields wrong: %+v", p)
	}
}

func TestWithEntryAndBase(t *testing.T) {
	p := NewProcess(1, 0, 5)
	e := p.WithEntry(7)
	if e.Entry != 7 {
		t.Fatalf("WithEntry entry = %d", e.Entry)
	}
	if p.Entry != 0 {
		t.Fatal("WithEntry mutated the original")
	}
	if e.Base() != p {
		t.Fatal("Base did not strip the entry")
	}
	if !e.SameEntity(p) || !p.SameEntity(e) {
		t.Fatal("SameEntity should ignore entry points")
	}
	q := NewProcess(1, 0, 6)
	if q.SameEntity(p) {
		t.Fatal("distinct processes reported as same entity")
	}
}

func TestString(t *testing.T) {
	p := NewProcess(2, 1, 17)
	if got := p.String(); got != "proc(2.1/17)" {
		t.Errorf("String() = %q", got)
	}
	if got := p.WithEntry(5).String(); got != "proc(2.1/17:5)" {
		t.Errorf("String() with entry = %q", got)
	}
	g := NewGroup(0, 0, 3)
	if got := g.String(); got != "group(0.0/3)" {
		t.Errorf("group String() = %q", got)
	}
}

func TestCompareOrdering(t *testing.T) {
	low := NewProcess(1, 0, 1)
	cases := []struct {
		name string
		hi   Address
	}{
		{"site", NewProcess(2, 0, 1)},
		{"incarnation", NewProcess(1, 1, 1)},
		{"localid", NewProcess(1, 0, 2)},
		{"kind", NewGroup(1, 0, 1)},
		{"entry", NewProcess(1, 0, 1).WithEntry(1)},
	}
	for _, c := range cases {
		if low.Compare(c.hi) != -1 {
			t.Errorf("%s: Compare(low, hi) = %d, want -1", c.name, low.Compare(c.hi))
		}
		if c.hi.Compare(low) != 1 {
			t.Errorf("%s: Compare(hi, low) = %d, want 1", c.name, c.hi.Compare(low))
		}
		if !low.Less(c.hi) || c.hi.Less(low) {
			t.Errorf("%s: Less inconsistent with Compare", c.name)
		}
	}
	if low.Compare(low) != 0 {
		t.Error("Compare(a, a) != 0")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Address{
		NewProcess(0, 0, 1),
		NewProcess(65535, 255, 0xFFFFFF),
		NewGroup(12, 3, 42).WithEntry(200),
		Nil,
	}
	// Nil has Kind 0 which decodes fine.
	for _, a := range cases {
		enc := a.Encode()
		got, err := Decode(enc[:])
		if err != nil {
			t.Fatalf("Decode(%v): %v", a, err)
		}
		if got != a {
			t.Errorf("round trip mismatch: %v != %v", got, a)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 7)); err != ErrShortAddress {
		t.Errorf("short decode err = %v, want ErrShortAddress", err)
	}
	var b [8]byte
	b[3] = 200 // invalid kind
	if _, err := Decode(b[:]); err != ErrBadKind {
		t.Errorf("bad kind err = %v, want ErrBadKind", err)
	}
}

func TestAppendEncoded(t *testing.T) {
	a := NewProcess(1, 2, 3)
	buf := []byte{0xAA}
	buf = a.AppendEncoded(buf)
	if len(buf) != 1+EncodedSize {
		t.Fatalf("AppendEncoded length = %d", len(buf))
	}
	got, err := Decode(buf[1:])
	if err != nil || got != a {
		t.Fatalf("AppendEncoded round trip failed: %v %v", got, err)
	}
}

// Property: Encode/Decode round-trips for all well-formed addresses.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(site uint16, inc uint8, kindSel bool, entry uint8, local uint32) bool {
		k := KindProcess
		if kindSel {
			k = KindGroup
		}
		a := Address{Site: SiteID(site), Incarn: Incarnation(inc), Kind: k,
			Entry: EntryID(entry), LocalID: local & 0xFFFFFF}
		enc := a.Encode()
		got, err := Decode(enc[:])
		return err == nil && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and Compare(a,a)==0.
func TestCompareProperty(t *testing.T) {
	gen := func(site uint16, inc, entry uint8, grp bool, local uint32) Address {
		k := KindProcess
		if grp {
			k = KindGroup
		}
		return Address{Site: SiteID(site), Incarn: Incarnation(inc), Kind: k,
			Entry: EntryID(entry), LocalID: local & 0xFFFFFF}
	}
	f := func(s1 uint16, i1, e1 uint8, g1 bool, l1 uint32, s2 uint16, i2, e2 uint8, g2 bool, l2 uint32) bool {
		a, b := gen(s1, i1, e1, g1, l1), gen(s2, i2, e2, g2, l2)
		if a == b {
			return a.Compare(b) == 0
		}
		return a.Compare(b) == -b.Compare(a) && a.Compare(a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestListContains(t *testing.T) {
	p1 := NewProcess(1, 0, 1)
	p2 := NewProcess(1, 0, 2)
	g := NewGroup(1, 0, 3)
	l := List{p1, g}
	if !l.Contains(p1) || !l.Contains(g) {
		t.Error("Contains missed present members")
	}
	if l.Contains(p2) {
		t.Error("Contains found absent member")
	}
	if !l.Contains(p1.WithEntry(9)) {
		t.Error("Contains should ignore entry point")
	}
}

func TestListCloneAndDedup(t *testing.T) {
	p1 := NewProcess(1, 0, 1)
	p2 := NewProcess(1, 0, 2)
	l := List{p1, p2, p1.WithEntry(3), p2}
	d := l.Dedup()
	if len(d) != 2 || d[0] != p1 || d[1] != p2 {
		t.Errorf("Dedup = %v", d)
	}
	c := l.Clone()
	if len(c) != len(l) {
		t.Fatal("Clone length mismatch")
	}
	c[0] = Nil
	if l[0] == Nil {
		t.Error("Clone aliases the original")
	}
	if List(nil).Clone() != nil {
		t.Error("Clone(nil) should be nil")
	}
}

// TestDedupShortListAllocatesNothing pins the case every Cast to one group
// passes: a list that cannot hold a duplicate comes back as it is.
func TestDedupShortListAllocatesNothing(t *testing.T) {
	one := List{NewGroup(1, 0, 3)}
	var got List
	if n := testing.AllocsPerRun(100, func() { got = one.Dedup() }); n != 0 {
		t.Errorf("Dedup of a one-element list allocates %.0f times, want 0", n)
	}
	if len(got) != 1 || got[0] != one[0] {
		t.Errorf("Dedup = %v, want %v", got, one)
	}
	if d := (List{}).Dedup(); len(d) != 0 {
		t.Errorf("Dedup of the empty list = %v", d)
	}
}

func TestGenerator(t *testing.T) {
	g := NewGenerator(4, 1)
	p := g.NextProcess()
	q := g.NextProcess()
	grp := g.NextGroup()
	if p == q {
		t.Error("generator returned duplicate addresses")
	}
	if p.LocalID != 1 || q.LocalID != 2 || grp.LocalID != 3 {
		t.Errorf("unexpected local ids: %d %d %d", p.LocalID, q.LocalID, grp.LocalID)
	}
	if p.Site != 4 || p.Incarn != 1 {
		t.Errorf("generator site/incarnation wrong: %v", p)
	}
	if !grp.IsGroup() || !p.IsProcess() {
		t.Error("generator kinds wrong")
	}
}
