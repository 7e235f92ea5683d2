package protos

import "testing"

func TestRequestMarks(t *testing.T) {
	id := func(requester, counter int64) int64 { return requester<<32 | counter }
	type check struct {
		id        int64
		committed bool  // Committed: the dedupe answer ("must not run here again")
		vote      int64 // Vote: the first-hand outcome
	}
	for _, tc := range []struct {
		name   string
		do     func(m *requestMarks)
		checks []check
	}{
		{
			name: "an id is committed up to the mark, and only inside the tracked range by vote",
			do:   func(m *requestMarks) { m.Record(id(7, 10)); m.Record(id(7, 11)) },
			checks: []check{
				{id(7, 11), true, voteCommitted},
				{id(7, 10), true, voteCommitted},
				{id(7, 12), false, voteUnknown},
				// Below the first counter this site ever saw: the dedupe is
				// conservative, the vote claims no knowledge.
				{id(7, 9), true, voteUnknown},
				{id(8, 1), false, voteUnknown}, // another requester entirely
			},
		},
		{
			name: "ids the mark jumps over were abandoned: aborted",
			do:   func(m *requestMarks) { m.Record(id(7, 10)); m.Record(id(7, 13)) },
			checks: []check{
				{id(7, 11), true, voteAborted},
				{id(7, 12), true, voteAborted},
				{id(7, 13), true, voteCommitted},
			},
		},
		{
			name: "a late record of an older id moves nothing",
			do:   func(m *requestMarks) { m.Record(id(7, 10)); m.Record(id(7, 13)); m.Record(id(7, 11)) },
			checks: []check{
				{id(7, 11), true, voteAborted},
				{id(7, 14), false, voteUnknown},
			},
		},
		{
			name: "sealed aborted: a straggling copy is a duplicate and can never run",
			do:   func(m *requestMarks) { m.Record(id(7, 1)); m.Seal(id(7, 3), false) },
			checks: []check{
				{id(7, 3), true, voteAborted},
				{id(7, 2), true, voteAborted}, // jumped by the seal's advance
			},
		},
		{
			name: "sealed aborted, and the late commit applyGbCommit then records changes no answer",
			do:   func(m *requestMarks) { m.Record(id(7, 1)); m.Seal(id(7, 3), false); m.Record(id(7, 3)) },
			checks: []check{
				{id(7, 3), true, voteAborted},
			},
		},
		{
			name: "sealed committed clears an earlier skip",
			do: func(m *requestMarks) {
				m.Record(id(7, 1))
				m.Record(id(7, 3))     // jumps 2 ...
				m.Seal(id(7, 2), true) // ... but a survivor had applied it
			},
			checks: []check{{id(7, 2), true, voteCommitted}},
		},
		{
			name: "a seal is the first this site hears of a requester",
			do:   func(m *requestMarks) { m.Seal(id(9, 5), false) },
			checks: []check{
				{id(9, 5), true, voteAborted},
				{id(9, 4), true, voteUnknown},
			},
		},
		{
			name: "a jump of exactly gbSkipGapCap ids records each",
			do:   func(m *requestMarks) { m.Record(id(7, 1)); m.Record(id(7, 1+gbSkipGapCap+1)) },
			checks: []check{
				{id(7, 2), true, voteAborted},
				{id(7, 1+gbSkipGapCap), true, voteAborted},
			},
		},
		{
			name: "a larger jump records none: the documented ambiguity",
			do:   func(m *requestMarks) { m.Record(id(7, 1)); m.Record(id(7, 1+gbSkipGapCap+2)) },
			checks: []check{
				{id(7, 2), true, voteCommitted},
				{id(7, 1+gbSkipGapCap+1), true, voteCommitted},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newRequestMarks()
			tc.do(&m)
			for _, c := range tc.checks {
				if got := m.Committed(c.id); got != c.committed {
					t.Errorf("Committed(%d|%d) = %v, want %v", c.id>>32, c.id&0xffffffff, got, c.committed)
				}
				if got := m.Vote(c.id); got != c.vote {
					t.Errorf("Vote(%d|%d) = %d, want %d", c.id>>32, c.id&0xffffffff, got, c.vote)
				}
			}
		})
	}
}
