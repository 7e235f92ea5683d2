package core

import (
	"fmt"
	"strings"

	"repro/internal/addr"
)

// ViewID numbers the successive membership views of one group. The first
// view installed when a group is created has ViewID 1.
type ViewID uint64

// View is one membership view of a process group. Members are listed in
// order of decreasing age (the creator first, then in join order), providing
// the natural ranking the paper describes in Section 3.2: because every
// member sees the same sequence of views, a member's index in this list can
// be used to coordinate actions with no extra communication (the
// twenty-questions example bases work division on it).
type View struct {
	Group   addr.Address // the group address
	Name    string       // the group's symbolic name
	ID      ViewID       // monotonically increasing view number
	Members []addr.Address
}

// Clone returns a deep copy of the view.
func (v View) Clone() View {
	cp := v
	cp.Members = append([]addr.Address(nil), v.Members...)
	return cp
}

// Size returns the number of members.
func (v View) Size() int { return len(v.Members) }

// RankOf returns the member's index in the age ranking, or -1 if the
// process is not a member. Entry points are ignored.
func (v View) RankOf(p addr.Address) int {
	base := p.Base()
	for i, m := range v.Members {
		if m.Base() == base {
			return i
		}
	}
	return -1
}

// Contains reports whether p is a member of the view.
func (v View) Contains(p addr.Address) bool { return v.RankOf(p) >= 0 }

// Coordinator returns the oldest member (rank 0), which acts as the group
// coordinator for GBCAST and view-change protocols, or addr.Nil for an
// empty view.
func (v View) Coordinator() addr.Address {
	if len(v.Members) == 0 {
		return addr.Nil
	}
	return v.Members[0]
}

// WithJoined returns a new view with ID+1 and the given processes appended
// in order (joiners are youngest, so they rank last). Processes already
// present are not duplicated.
func (v View) WithJoined(ps ...addr.Address) View {
	next := v.Clone()
	next.ID++
	for _, p := range ps {
		if !next.Contains(p) {
			next.Members = append(next.Members, p.Base())
		}
	}
	return next
}

// WithRemoved returns a new view with ID+1 and the given processes removed
// (whether they left voluntarily or failed). The relative order of the
// remaining members is preserved, so ranks only ever shift down.
func (v View) WithRemoved(ps ...addr.Address) View {
	next := v.Clone()
	next.ID++
	drop := make(map[addr.Address]bool, len(ps))
	for _, p := range ps {
		drop[p.Base()] = true
	}
	kept := next.Members[:0]
	for _, m := range next.Members {
		if !drop[m.Base()] {
			kept = append(kept, m)
		}
	}
	next.Members = kept
	return next
}

// Equal reports whether two views have the same group, id, and membership in
// the same order.
func (v View) Equal(o View) bool {
	if v.Group != o.Group || v.ID != o.ID || len(v.Members) != len(o.Members) {
		return false
	}
	for i := range v.Members {
		if v.Members[i] != o.Members[i] {
			return false
		}
	}
	return true
}

// String renders the view for logs: "name#3{proc(1.0/2) proc(2.0/5)}".
func (v View) String() string {
	parts := make([]string, len(v.Members))
	for i, m := range v.Members {
		parts[i] = m.String()
	}
	name := v.Name
	if name == "" {
		name = v.Group.String()
	}
	return fmt.Sprintf("%s#%d{%s}", name, v.ID, strings.Join(parts, " "))
}

// SitesOf returns the distinct sites hosting members, in rank order of first
// appearance. The protocols process uses it to route one copy of each
// protocol packet per site.
func (v View) SitesOf() []addr.SiteID {
	seen := make(map[addr.SiteID]bool)
	var out []addr.SiteID
	for _, m := range v.Members {
		if !seen[m.Site] {
			seen[m.Site] = true
			out = append(out, m.Site)
		}
	}
	return out
}
