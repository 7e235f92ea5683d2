package core

import (
	"testing"
	"time"

	"repro/internal/vclock"
)

// The small-scope check of CausalQueue: every causal history of five entries
// over a view of three ranks, each fed to a queue that stamps for no rank in
// every arrival order, with a second copy of each entry after the first. A
// history's entries are CBCASTs, each stamped by a rank that had delivered
// some causally closed set of the earlier ones (so concurrent sends are in
// scope), and rank -1 entries, each waiting on any clock the stamped entries
// before it can reach. Ranks are numbered in the order they first send, so
// no history is visited twice under another numbering.

// scopeEntry is one entry of an enumerated history.
type scopeEntry struct {
	rank int // -1: nobody has stamped it
	vt   vclock.VC
}

// eachHistory calls visit with every history of n entries.
func eachHistory(n int, visit func([]scopeEntry)) {
	const ranks = 3
	var h []scopeEntry
	var sent [ranks]uint64     // entries each rank has stamped
	var knows [ranks]vclock.VC // the timestamp of each rank's last
	var grow func()
	grow = func() {
		if len(h) == n {
			visit(h)
			return
		}
		for r := range ranks {
			if r > 0 && sent[r-1] == 0 {
				break // rank r sends only after rank r-1 has
			}
			// Each other rank's entry ranges from what r knew at its last
			// send to everything that rank has sent.
			vt := vclock.New(ranks)
			vt[r] = sent[r] + 1
			var pick func(s int)
			pick = func(s int) {
				if s == ranks {
					if closed(h, vt) {
						h = append(h, scopeEntry{rank: r, vt: vt.Clone()})
						old := knows[r]
						sent[r]++
						knows[r] = h[len(h)-1].vt
						grow()
						sent[r]--
						knows[r] = old
						h = h[:len(h)-1]
					}
					return
				}
				if s == r {
					pick(s + 1)
					return
				}
				for k := knows[r].Get(s); k <= sent[s]; k++ {
					vt[s] = k
					pick(s + 1)
				}
			}
			pick(0)
		}
		vt := vclock.New(ranks)
		var pick func(s int)
		pick = func(s int) {
			if s == ranks {
				h = append(h, scopeEntry{rank: -1, vt: vt.Clone()})
				grow()
				h = h[:len(h)-1]
				return
			}
			for k := uint64(0); k <= sent[s]; k++ {
				vt[s] = k
				pick(s + 1)
			}
		}
		pick(0)
	}
	grow()
}

// closed reports whether a stamp of vt covers the whole causal past of every
// stamped entry it covers.
func closed(h []scopeEntry, vt vclock.VC) bool {
	for _, e := range h {
		if e.rank >= 0 && e.vt[e.rank] <= vt[e.rank] {
			for k := range vt {
				if e.vt[k] > vt[k] {
					return false
				}
			}
		}
	}
	return true
}

// covers reports whether clock reaches vt at every rank but skip.
func covers(clock, vt vclock.VC, skip int) bool {
	for k := range vt {
		if k != skip && vt[k] > clock[k] {
			return false
		}
	}
	return true
}

// eachOrder calls visit with every permutation of 0..n-1.
func eachOrder(n int, visit func([]int)) {
	order := make([]int, n)
	used := make([]bool, n)
	var place func(i int)
	place = func(i int) {
		if i == n {
			visit(order)
			return
		}
		for j := range n {
			if !used[j] {
				used[j], order[i] = true, j
				place(i + 1)
				used[j] = false
			}
		}
	}
	place(0)
}

// checkArrival feeds h to a fresh queue in the given order and returns what
// went wrong, or "". The model clock merges the timestamps of the stamped
// entries released so far. Each release must find its predecessors
// released: a stamped entry's own rank one behind it and every other rank
// caught up, a rank -1 entry's timestamp dominated. The queue's clock must be
// the model's after every call, so a rank -1 entry never moves it, and a
// second copy must be turned away: of a stamped entry always, of a rank -1
// entry while it waits.
func checkArrival(h []scopeEntry, order []int) string {
	q := NewCausalQueue(-1, 3)
	model := vclock.New(3)
	released := make([]bool, len(h))
	nreleased := 0
	for _, i := range order {
		in := CausalIncoming{ID: mkID(i, 1), SenderRank: h[i].rank, VT: h[i].vt, Payload: i}
		for _, out := range q.Receive(in) {
			j := out.Payload.(int)
			e := h[j]
			switch {
			case released[j]:
				return "an entry released twice"
			case e.rank >= 0 && model[e.rank]+1 != e.vt[e.rank]:
				return "a stamped entry released out of its rank's order"
			case !covers(model, e.vt, e.rank):
				return "an entry released before a predecessor"
			}
			released[j] = true
			nreleased++
			if e.rank >= 0 {
				model[e.rank] = e.vt[e.rank]
			}
		}
		if !q.Clock().Equal(model) {
			return "the clock is not the merge of the stamped entries released"
		}
		if h[i].rank >= 0 || !released[i] {
			waiting := q.PendingCount()
			if out := q.Receive(in); out != nil || q.PendingCount() != waiting {
				return "a second copy was not turned away"
			}
		}
	}
	if nreleased != len(h) || q.PendingCount() != 0 {
		return "an entry was never released"
	}
	return ""
}

func TestCausalQueueSmallScope(t *testing.T) {
	const entries = 5
	start := time.Now()
	histories, runs := 0, 0
	eachHistory(entries, func(h []scopeEntry) {
		histories++
		eachOrder(len(h), func(order []int) {
			runs++
			if msg := checkArrival(h, order); msg != "" {
				t.Fatalf("%s: history %v, arrival order %v", msg, h, order)
			}
		})
	})
	t.Logf("%d histories of %d entries, %d arrival orders, in %v", histories, entries, runs, time.Since(start))
}
