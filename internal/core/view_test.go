package core

import (
	"strings"
	"testing"

	"repro/internal/addr"
)

func p(site addr.SiteID, id uint32) addr.Address { return addr.NewProcess(site, 0, id) }

func testView() View {
	return View{
		Group:   addr.NewGroup(1, 0, 100),
		Name:    "twenty",
		ID:      1,
		Members: []addr.Address{p(1, 1), p(2, 2), p(3, 3)},
	}
}

func TestViewRankAndContains(t *testing.T) {
	v := testView()
	if v.Size() != 3 {
		t.Fatalf("Size = %d", v.Size())
	}
	if v.RankOf(p(1, 1)) != 0 || v.RankOf(p(2, 2)) != 1 || v.RankOf(p(3, 3)) != 2 {
		t.Error("ranks wrong")
	}
	if v.RankOf(p(9, 9)) != -1 {
		t.Error("non-member has a rank")
	}
	if !v.Contains(p(2, 2)) || v.Contains(p(9, 9)) {
		t.Error("Contains wrong")
	}
	// Entry points must not affect rank.
	if v.RankOf(p(2, 2).WithEntry(7)) != 1 {
		t.Error("entry point affected rank")
	}
}

func TestViewCoordinator(t *testing.T) {
	v := testView()
	if v.Coordinator() != p(1, 1) {
		t.Errorf("Coordinator = %v", v.Coordinator())
	}
	if (View{}).Coordinator() != addr.Nil {
		t.Error("empty view coordinator should be nil")
	}
}

func TestWithJoined(t *testing.T) {
	v := testView()
	v2 := v.WithJoined(p(4, 4))
	if v2.ID != v.ID+1 {
		t.Errorf("joined view id = %d", v2.ID)
	}
	if v2.Size() != 4 || v2.RankOf(p(4, 4)) != 3 {
		t.Errorf("joiner should rank last: %v", v2)
	}
	// Original view unchanged.
	if v.Size() != 3 {
		t.Error("WithJoined mutated the original view")
	}
	// Joining an existing member does not duplicate it.
	v3 := v.WithJoined(p(2, 2))
	if v3.Size() != 3 {
		t.Errorf("duplicate join changed membership: %v", v3)
	}
}

func TestWithRemoved(t *testing.T) {
	v := testView()
	v2 := v.WithRemoved(p(1, 1))
	if v2.ID != v.ID+1 || v2.Size() != 2 {
		t.Errorf("removed view = %v", v2)
	}
	// Remaining members keep their relative order: the new coordinator is
	// the previously second-oldest member.
	if v2.Coordinator() != p(2, 2) || v2.RankOf(p(3, 3)) != 1 {
		t.Errorf("ranking after removal wrong: %v", v2)
	}
	if v.Size() != 3 {
		t.Error("WithRemoved mutated the original view")
	}
	// Removing a non-member only bumps the id.
	v3 := v.WithRemoved(p(9, 9))
	if v3.Size() != 3 {
		t.Errorf("removing non-member changed membership: %v", v3)
	}
}

func TestViewEqualAndClone(t *testing.T) {
	v := testView()
	c := v.Clone()
	if !v.Equal(c) {
		t.Error("clone not equal")
	}
	c.Members[0] = p(9, 9)
	if v.Members[0] == p(9, 9) {
		t.Error("Clone shares the member slice")
	}
	if v.Equal(c) {
		t.Error("Equal missed a member difference")
	}
	d := v.Clone()
	d.ID = 99
	if v.Equal(d) {
		t.Error("Equal missed an id difference")
	}
	e := v.Clone()
	e.Members = e.Members[:2]
	if v.Equal(e) {
		t.Error("Equal missed a size difference")
	}
}

func TestViewString(t *testing.T) {
	v := testView()
	s := v.String()
	if !strings.Contains(s, "twenty#1") || !strings.Contains(s, "proc(1.0/1)") {
		t.Errorf("String = %q", s)
	}
	anon := View{Group: addr.NewGroup(1, 0, 5), ID: 2}
	if !strings.Contains(anon.String(), "group(1.0/5)#2") {
		t.Errorf("anonymous String = %q", anon.String())
	}
}

func TestSitesOf(t *testing.T) {
	v := View{
		Group: addr.NewGroup(1, 0, 1),
		ID:    1,
		Members: []addr.Address{
			p(1, 1), p(2, 2), p(1, 3), p(3, 4),
		},
	}
	sites := v.SitesOf()
	if len(sites) != 3 || sites[0] != 1 || sites[1] != 2 || sites[2] != 3 {
		t.Errorf("SitesOf = %v", sites)
	}
}

func TestMsgIDOrderingAndString(t *testing.T) {
	a := MsgID{Sender: p(1, 1), Seq: 1}
	b := MsgID{Sender: p(1, 1), Seq: 2}
	c := MsgID{Sender: p(2, 1), Seq: 1}
	if !a.Less(b) || b.Less(a) {
		t.Error("seq ordering wrong")
	}
	if !a.Less(c) || c.Less(a) {
		t.Error("sender ordering wrong")
	}
	if a.Less(a) {
		t.Error("Less not irreflexive")
	}
	if a.IsZero() || !(MsgID{}).IsZero() {
		t.Error("IsZero wrong")
	}
	if a.String() != "proc(1.0/1)#1" {
		t.Errorf("String = %q", a.String())
	}
}
