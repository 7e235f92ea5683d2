package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span names. Spans are recorded from this package, around the calls into
// the public isis API; nothing inside the toolkit is instrumented.
const (
	spanCast    = "isis.cast"       // Process.Cast, entry to return
	spanHandler = "isis.handler"    // entry handler at one member, parent: the cast
	spanReply   = "isis.reply"      // Process.Reply inside a handler, parent: the handler
	spanJoin    = "isis.join"       // Process.Join, entry to return
	spanXfer    = "isis.state_xfer" // Join return to last state block, parent: the join
	spanLeave   = "isis.leave"      // Process.Leave, entry to return
)

// span is one timed interval of one op. Times are nanoseconds since the
// recorder was created.
type span struct {
	id, parent uint64
	name       string
	round, op  int
	start, end int64
}

// lane is the span buffer of one recording goroutine (the load generator or
// one member's handler task). The mutex is uncontended in practice; it is
// there because the toolkit, not this package, decides which goroutine runs
// a callback.
type lane struct {
	mu    sync.Mutex
	base  uint64
	spans []span
}

// recorder keeps every span of a traced run in memory until the run ends.
type recorder struct {
	t0    time.Time
	lanes []*lane
	round int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newLane adds a buffer with room for n spans.
func (r *recorder) newLane(n int) *lane {
	l := &lane{base: uint64(len(r.lanes)+1) << 40, spans: make([]span, 0, n)}
	r.lanes = append(r.lanes, l)
	return l
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its id, which children name as parent.
func (r *recorder) begin(l *lane, name string, op int, parent uint64) uint64 {
	now := r.now()
	l.mu.Lock()
	id := l.base + uint64(len(l.spans)) + 1
	l.spans = append(l.spans, span{id: id, parent: parent, name: name, round: r.round, op: op, start: now})
	l.mu.Unlock()
	return id
}

// end closes the span begin returned id for.
func (r *recorder) end(l *lane, id uint64) {
	now := r.now()
	l.mu.Lock()
	l.spans[id-l.base-1].end = now
	l.mu.Unlock()
}

// each calls f for every recorded span of the given round.
func (r *recorder) each(round int, f func(*span)) {
	for _, l := range r.lanes {
		l.mu.Lock()
		for i := range l.spans {
			if l.spans[i].round == round {
				f(&l.spans[i])
			}
		}
		l.mu.Unlock()
	}
}

// writeJSON writes the spans of ops below maxOp as a JSON array, one span
// per line. Every span counts toward the metrics; the file is a sample
// because a full run records over half a million spans.
func (r *recorder) writeJSON(path string, maxOp int) (n int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	sep := "[\n"
	for _, l := range r.lanes {
		for i := range l.spans {
			s := &l.spans[i]
			if s.op >= maxOp {
				continue
			}
			fmt.Fprintf(w, `%s{"id":%d,"parent":%d,"name":%q,"round":%d,"op":%d,"start_ns":%d,"end_ns":%d}`,
				sep, s.id, s.parent, s.name, s.round, s.op, s.start, s.end)
			sep = ",\n"
			n++
		}
	}
	if n == 0 {
		fmt.Fprint(w, "[")
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// summarize reduces the spans of one traced round to the isis.* span
// metrics: medians, in µs, over the round's measured ops (ids from warm up).
func summarize(rec *recorder, round, warm, total int) map[string]float64 {
	type opTimes struct {
		castStart, castEnd      int64
		firstH, lastH, firstEnd int64 // handler entries and the earliest handler return
	}
	ops := make([]opTimes, total)
	durs := map[string][]time.Duration{}
	rec.each(round, func(s *span) {
		if s.op < warm || s.op >= total || s.end == 0 {
			return
		}
		durs[s.name] = append(durs[s.name], time.Duration(s.end-s.start))
		o := &ops[s.op]
		switch s.name {
		case spanCast:
			o.castStart, o.castEnd = s.start, s.end
		case spanHandler:
			if o.firstH == 0 || s.start < o.firstH {
				o.firstH = s.start
			}
			if s.start > o.lastH {
				o.lastH = s.start
			}
			if o.firstEnd == 0 || s.end < o.firstEnd {
				o.firstEnd = s.end
			}
		}
	})
	var first, last, wait []time.Duration
	for i := warm; i < total; i++ {
		o := &ops[i]
		if o.castStart == 0 || o.firstH == 0 {
			continue
		}
		first = append(first, time.Duration(o.firstH-o.castStart))
		last = append(last, time.Duration(o.lastH-o.castStart))
		// Only a Cast that waits for a reply returns after a handler does.
		if len(durs[spanReply]) > 0 && o.castEnd > o.firstEnd {
			wait = append(wait, time.Duration(o.castEnd-o.firstEnd))
		}
	}
	p50 := func(ds []time.Duration) float64 { return percentile(micros(ds), 50) }
	return map[string]float64{
		"isis.cast_call_us":     p50(durs[spanCast]),
		"isis.deliver_first_us": p50(first), // Cast entry to handler entry at the first member
		"isis.deliver_last_us":  p50(last),  // ... at the last member
		"isis.handler_us":       p50(durs[spanHandler]),
		"isis.reply_call_us":    p50(durs[spanReply]),
		"isis.reply_wait_us":    p50(wait), // first handler return to Cast return
		"isis.join_us":          p50(durs[spanJoin]),
		"isis.leave_us":         p50(durs[spanLeave]),
	}
}
