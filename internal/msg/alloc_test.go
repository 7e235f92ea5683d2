//go:build !race

package msg

import (
	"testing"
	"unsafe"

	"repro/internal/addr"
)

// AllocsPerRun is meaningless under the race detector, hence the build tag.

func TestFieldIsCompact(t *testing.T) {
	if got := unsafe.Sizeof(field{}); got > 56 {
		t.Errorf("field is %d bytes, want at most 56", got)
	}
	if got := unsafe.Sizeof(Message{}); got > 24 {
		t.Errorf("Message is %d bytes, want at most 24", got)
	}
}

func TestAbsentFieldLookupsDoNotAllocate(t *testing.T) {
	m := New().PutInt("present", 1).PutString("text", "x")
	var (
		i int64
		a addr.Address
		h bool
	)
	allocs := testing.AllocsPerRun(200, func() {
		i += m.GetInt("absent", 0) + m.GetInt("text", 0) + m.Session() // absent, mistyped, absent
		a = m.GetAddress("absent")
		a = m.Sender()
		h = m.Has("absent") || m.GetBytes("absent") != nil || m.GetMessage("absent") != nil
	})
	if allocs != 0 {
		t.Errorf("lookups of absent fields allocate %.1f times per run, want 0", allocs)
	}
	_, _, _ = i, a, h
}

// A decode allocates the message and its exact-size table, and points every
// name and variable-length value into the packet; a nested message adds its
// own message and table. Unmarshal adds the private copy of the packet that
// the owning decode does without.
func TestDecodeAllocations(t *testing.T) {
	flat := New().PutInt("a", 1).PutAddress("b", addr.NewProcess(1, 0, 2)).
		PutBytes("c", make([]byte, 100)).PutString("d", "text").
		PutAddressList("e", addr.List{addr.NewProcess(1, 0, 2), addr.NewGroup(2, 0, 3)})
	for _, tc := range []struct {
		name string
		m    *Message
		want float64
	}{
		{"flat 5 fields", flat, 3},
		{"data packet with nested payload", sampleMessage(), 5},
	} {
		enc, err := tc.m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		var got *Message
		allocs := testing.AllocsPerRun(200, func() { got, err = Unmarshal(enc) })
		if err != nil || got.Len() != tc.m.Len() {
			t.Fatalf("%s: decode failed: %v", tc.name, err)
		}
		if allocs != tc.want {
			t.Errorf("%s: decode allocates %.1f times, want %.0f", tc.name, allocs, tc.want)
		}
		if owned := testing.AllocsPerRun(200, func() { _, err = UnmarshalOwned(enc, 0) }); err != nil || owned != tc.want-1 {
			t.Errorf("%s: the owning decode allocates %.1f times (%v), want %.0f", tc.name, owned, err, tc.want-1)
		}
		if cap(got.fields) != len(got.fields) {
			t.Errorf("%s: table has %d slots for %d fields", tc.name, cap(got.fields), len(got.fields))
		}
	}
}

func TestCloneAllocations(t *testing.T) {
	scalar := New().PutInt("a", 1).PutInt("b", 2).PutAddress("c", addr.NewProcess(1, 0, 2)).
		PutBytes("d", make([]byte, 1024)).PutString("e", "text")
	var c *Message
	if allocs := testing.AllocsPerRun(200, func() { c = scalar.Clone() }); allocs > 2 {
		t.Errorf("Clone of a flat message allocates %.1f times, want at most 2", allocs)
	}
	// The clone has room for the system fields its caller adds.
	if allocs := testing.AllocsPerRun(200, func() {
		c = scalar.Clone()
		c.PutAddress(FSender, addr.NewProcess(1, 0, 2)).PutAddress(FGroup, addr.NewGroup(1, 0, 1)).
			PutInt(FViewID, 3).PutInt(FProtocol, 1)
	}); allocs > 2 {
		t.Errorf("Clone plus four system fields allocates %.1f times, want at most 2", allocs)
	}
	if c.Len() != scalar.Len()+4 {
		t.Errorf("clone has %d fields", c.Len())
	}
}

func TestBuildAllocations(t *testing.T) {
	var m *Message
	if allocs := testing.AllocsPerRun(200, func() {
		m = NewSized(6).PutInt("a", 1).PutInt("b", 2).PutInt("c", 3).PutInt("d", 4).PutInt("e", 5).PutInt("f", 6)
	}); allocs != 2 {
		t.Errorf("building a pre-sized 6-field message allocates %.1f times, want 2", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		m = New().PutInt("a", 1).PutInt("b", 2).PutInt("c", 3).PutInt("d", 4)
	}); allocs != 2 {
		t.Errorf("building a 4-field message allocates %.1f times, want 2", allocs)
	}
	_ = m
}
