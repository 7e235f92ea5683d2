package protos

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// TestBoundedLog pins core.BoundedLog, through its exported methods, from the
// package that leans on it hardest: three of its five uses are the daemon's
// (recent, reqLog and marks.skipped), beside the total-order queue's delivered
// ids and coordcohort's early reply copies.
func TestBoundedLog(t *testing.T) {
	type op struct {
		del bool
		k   int
		v   string
	}
	put := func(k int, v string) op { return op{k: k, v: v} }
	del := func(k int) op { return op{del: true, k: k} }

	for _, tc := range []struct {
		name  string
		limit int
		ops   []op
		keys  []int // expected Keys(): oldest first
		vals  []string
	}{
		{
			name: "keys come back in insertion order", limit: 4,
			ops:  []op{put(3, "c"), put(1, "a"), put(2, "b")},
			keys: []int{3, 1, 2}, vals: []string{"c", "a", "b"},
		},
		{
			name: "a full log forgets the oldest first", limit: 3,
			ops:  []op{put(1, "a"), put(2, "b"), put(3, "c"), put(4, "d"), put(5, "e")},
			keys: []int{3, 4, 5}, vals: []string{"c", "d", "e"},
		},
		{
			name: "re-put of a live key replaces the value, once, in place", limit: 3,
			ops:  []op{put(1, "a"), put(2, "b"), put(1, "A"), put(3, "c")},
			keys: []int{1, 2, 3}, vals: []string{"A", "b", "c"},
		},
		{
			name: "a re-put key is still the oldest", limit: 3,
			ops:  []op{put(1, "a"), put(2, "b"), put(1, "A"), put(3, "c"), put(4, "d")},
			keys: []int{2, 3, 4}, vals: []string{"b", "c", "d"},
		},
		{
			name: "a deleted key leaves no slot behind", limit: 3,
			ops: []op{put(1, "a"), put(2, "b"), put(3, "c"), del(2),
				put(4, "d"),  // fills the freed slot: nothing is evicted
				put(5, "e")}, // now full: 1 goes
			keys: []int{3, 4, 5}, vals: []string{"c", "d", "e"},
		},
		{
			name: "put-delete churn never evicts a standing entry", limit: 2,
			ops: []op{put(1, "lost"),
				put(10, "x"), del(10), put(11, "x"), del(11), put(12, "x"), del(12), put(13, "x"), del(13),
				put(14, "y")},
			keys: []int{1, 14}, vals: []string{"lost", "y"},
		},
		{
			name: "a deleted key put again is the youngest", limit: 3,
			ops:  []op{put(1, "a"), put(2, "b"), del(1), put(1, "a2"), put(3, "c"), put(4, "d")},
			keys: []int{1, 3, 4}, vals: []string{"a2", "c", "d"},
		},
		{
			name: "deleting an absent key is a no-op", limit: 2,
			ops:  []op{put(1, "a"), del(7), del(7)},
			keys: []int{1}, vals: []string{"a"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := core.NewBoundedLog[int, string](tc.limit)
			for i, o := range tc.ops {
				if o.del {
					l.Delete(o.k)
				} else {
					l.Put(o.k, o.v)
				}
				if n := len(l.Keys()); n > tc.limit {
					t.Fatalf("after op %d: %d keys, limit %d", i, n, tc.limit)
				}
				// An evicted or deleted key is really gone, not just unlisted
				// (core's own test checks the two fields against each other).
				for _, p := range tc.ops[:i+1] {
					if _, ok := l.Get(p.k); ok != slices.Contains(l.Keys(), p.k) {
						t.Fatalf("after op %d: Get(%d) found = %v, but Keys() = %v", i, p.k, ok, l.Keys())
					}
				}
			}
			if got := l.Keys(); !slices.Equal(got, tc.keys) {
				t.Fatalf("Keys() = %v, want %v", got, tc.keys)
			}
			for i, k := range tc.keys {
				if v, ok := l.Get(k); !ok || v != tc.vals[i] {
					t.Errorf("Get(%d) = %q, %v; want %q", k, v, ok, tc.vals[i])
				}
			}
			if _, ok := l.Get(-1); ok {
				t.Error("Get of a key never put reports a value")
			}
		})
	}
}
