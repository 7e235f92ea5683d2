package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	isis "repro"
	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/netback"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// The per-layer metrics come from two sources, both outside the toolkit's
// own code: spans and counters recorded around the public isis API during
// traced rounds of the workload (isis.*, protos.*, events.*), and kernels
// that call one layer's exported functions directly with the workload's
// message sizes and network profile (transport.*, simnet.*, tcpnet.*,
// msg.*, vclock.*, core.*). Layers off the measured path (fdetect, stable,
// task, tools/*) are left out.

// layerMetrics lists every per-layer metric a traced run reports, in print
// order. BENCHMARK.json repeats the names; a test keeps the two in step.
var layerMetrics = []struct{ name, unit string }{
	{"isis.op_p50_us", "us"},
	{"isis.ops_per_s", "1/s"},
	{"isis.cast_call_us", "us"},
	{"isis.deliver_first_us", "us"},
	{"isis.deliver_last_us", "us"},
	{"isis.handler_us", "us"},
	{"isis.reply_call_us", "us"},
	{"isis.reply_wait_us", "us"},
	{"isis.join_us", "us"},
	{"isis.leave_us", "us"},
	{"isis.op_p90_us", "us"},
	{"isis.op_p99_us", "us"},
	{"isis.op_max_us", "us"},
	{"isis.cpu_us_per_op", "us"},
	{"isis.gc_cycles_per_kop", "count"},
	{"isis.gc_pause_us_per_op", "us"},
	{"isis.trace_overhead_pct", "%"},
	{"protos.cbcasts_per_op", "count"},
	{"protos.abcasts_per_op", "count"},
	{"protos.gbcasts_per_op", "count"},
	{"protos.p2p_per_op", "count"},
	{"protos.delivered_per_op", "count"},
	{"protos.views_per_op", "count"},
	{"protos.residual_us", "us"},
	{"transport.oneway_us", "us"},
	{"transport.rtt_us", "us"},
	{"transport.send_call_us", "us"},
	{"transport.stream_msgs_per_s", "1/s"},
	{"transport.frames_per_msg", "count"},
	{"transport.coalesced_share", "count"},
	{"transport.acks_per_msg", "count"},
	{"transport.piggyback_share", "count"},
	{"transport.retransmits", "count"},
	{"transport.allocs_per_msg", "count"},
	{"simnet.oneway_us", "us"},
	{"simnet.send_call_us", "us"},
	{"simnet.allocs_per_pkt", "count"},
	{"simnet.delay_overshoot_us", "us"},
	{"tcpnet.oneway_us", "us"},
	{"tcpnet.send_call_us", "us"},
	{"tcpnet.allocs_per_pkt", "count"},
	{"tcpnet.stream_frames_per_s", "1/s"},
	{"tcpnet.dial_us", "us"},
	{"msg.marshal_ns", "ns"},
	{"msg.cached_marshal_ns", "ns"},
	{"msg.unmarshal_into_ns", "ns"},
	{"msg.encoded_bytes", "B"},
	{"msg.allocs_per_roundtrip", "count"},
	{"vclock.encode_ns", "ns"},
	{"vclock.decode_into_ns", "ns"},
	{"vclock.deliverable_ns", "ns"},
	{"core.causal_send_receive_ns", "ns"},
	{"core.total_propose_commit_ns", "ns"},
	{"core.view_change_ns", "ns"},
	{"events.published_per_op", "count"},
	{"events.dropped", "count"},
}

// spanFileOps is how many ops of each traced round (warm-up first) have
// their spans written to the span file.
const spanFileOps = 2000

type namedMetric struct {
	name  string
	value float64
}

// layerUnit is the unit layerMetrics declares for a per-layer metric.
func layerUnit(name string) string {
	for _, lm := range layerMetrics {
		if lm.name == name {
			return lm.unit
		}
	}
	return ""
}

// timeMetrics are the isis.* numbers that come from untraced rounds: the
// caller-visible latency and rate of an op, its tail, and the CPU and GC
// time behind it. They are per-layer metrics, printed by every run but not
// gated, because wall-clock and CPU time on a shared machine drift by more
// than any useful bound (README.md has the record).
func timeMetrics(rounds []roundResult) []namedMetric {
	var all []float64
	for i := range rounds {
		all = append(all, rounds[i].lat...)
	}
	sort.Float64s(all)
	med := func(f func(*roundResult) float64) float64 { return medianOfRounds(rounds, f) }
	return []namedMetric{
		{"isis.op_p50_us", med(func(r *roundResult) float64 { return percentile(r.lat, 50) })},
		{"isis.ops_per_s", med((*roundResult).opsPerSec)},
		{"isis.op_p90_us", percentile(all, 90)},
		{"isis.op_p99_us", percentile(all, 99)},
		{"isis.op_max_us", percentile(all, 100)},
		{"isis.cpu_us_per_op", med(func(r *roundResult) float64 { return r.perOp(uint64(r.cpu.Nanoseconds())) / 1e3 })},
		{"isis.gc_cycles_per_kop", med(func(r *roundResult) float64 { return 1e3 * r.perOp(uint64(r.gcCycles)) })},
		{"isis.gc_pause_us_per_op", med(func(r *roundResult) float64 { return r.perOp(uint64(r.gcPause.Nanoseconds())) / 1e3 })},
	}
}

// runTraced performs a traced run of w: untraced and traced rounds
// alternate (so drift in machine speed hits both alike), then the layer
// kernels run with w's sizes and profile. The result line carries the
// per-layer metrics; the spans go to opt.out.
func runTraced(w *workload, opt options) (result, error) {
	n := opt.rounds
	if n <= 0 {
		n = max(2, opt.seconds/6)
	}
	rec := newRecorder()
	var plain, traced []roundResult
	for r := 0; r < n; r++ {
		res, err := runRound(w, opt.seed, opt.scaled(w), nil)
		if err != nil {
			return result{}, fmt.Errorf("untraced round %d: %w", r, err)
		}
		plain = append(plain, res)
		rec.round = r
		if res, err = runRound(w, opt.seed, opt.scaled(w), rec); err != nil {
			return result{}, fmt.Errorf("traced round %d: %w", r, err)
		}
		traced = append(traced, res)
	}

	vals := map[string]float64{}
	for name := range traced[0].spans {
		vals[name] = medianOfRounds(traced, func(r *roundResult) float64 { return r.spans[name] })
	}
	for _, m := range timeMetrics(plain) {
		vals[m.name] = m.value
	}
	tracedRate := medianOfRounds(traced, (*roundResult).opsPerSec)
	vals["isis.trace_overhead_pct"] = 100 * worsening(vals["isis.ops_per_s"], tracedRate, true)

	med := func(f func(*roundResult) float64) float64 { return medianOfRounds(plain, f) }
	vals["protos.cbcasts_per_op"] = med(func(r *roundResult) float64 { return r.perOp(r.counters.CBCASTs) })
	vals["protos.abcasts_per_op"] = med(func(r *roundResult) float64 { return r.perOp(r.counters.ABCASTs) })
	vals["protos.gbcasts_per_op"] = med(func(r *roundResult) float64 { return r.perOp(r.counters.GBCASTs) })
	vals["protos.p2p_per_op"] = med(func(r *roundResult) float64 { return r.perOp(r.counters.PointToPoints) })
	vals["protos.delivered_per_op"] = med(func(r *roundResult) float64 { return r.perOp(r.counters.Delivered) })
	vals["protos.views_per_op"] = med(func(r *roundResult) float64 { return r.perOp(r.counters.ViewChanges) })
	vals["events.published_per_op"] = med(func(r *roundResult) float64 { return r.perOp(r.published) })
	vals["events.dropped"] = med(func(r *roundResult) float64 { return float64(r.dropped) })

	if err := runKernels(w, opt.scale, vals); err != nil {
		return result{}, err
	}
	// What is left of an op once the wire traversals on its critical path
	// are taken out: the protocol's own processing and scheduling.
	vals["protos.residual_us"] = vals["isis.op_p50_us"] - float64(w.hops)*vals["transport.oneway_us"]

	out := opt.out
	if out == "" {
		out = ".bench_build/trace-" + w.name + ".json"
	}
	nspans, err := rec.writeJSON(out, spanFileOps)
	if err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, rs := range [][]roundResult{plain, traced} {
		for i := range rs {
			res.Attempted += rs[i].attempted
			res.Failed += rs[i].failed
		}
	}
	if !opt.quiet {
		fmt.Printf("# %s traced: %d untraced + %d traced rounds x %d ops, spans of the first %d ops of each round (%d) in %s\n",
			w.name, n, n, plain[0].attempted, spanFileOps, nspans, out)
	}
	for _, lm := range layerMetrics {
		v, ok := vals[lm.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", lm.name)
		}
		res.Metrics[lm.name] = metric{v, lm.unit}
		if !opt.quiet {
			fmt.Printf("%s/%s = %.4f %s\n", w.name, lm.name, v, lm.unit)
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Layer kernels

// runKernels times each layer's exported functions from outside, shaped
// like w's traffic, and stores the results in vals. The scale multiplies
// every kernel's iteration count (smoke tests shrink them).
func runKernels(w *workload, scale float64, vals map[string]float64) error {
	iters := func(n int) int { return max(int(float64(n)*scale), 20) }
	pkt := wirePacket(w)
	enc, err := pkt.Marshal()
	if err != nil {
		return fmt.Errorf("msg kernel: %w", err)
	}
	size := len(enc) + 2 // the daemon's two-byte wire envelope
	msgKernel(pkt, enc, iters(20000), vals)
	orderingKernels(iters(200000), vals)

	sim := simnet.FastConfig()
	sim.InterSiteDelay = w.delay
	var fabric netback.Network
	if w.backend == isis.BackendTCP {
		fabric = tcpnet.New(tcpnet.Config{})
	} else {
		fabric = simnet.New(sim)
	}
	err = transportKernel(fabric, size, iters(3000), iters(20000), vals)
	fabric.Close()
	if err != nil {
		return fmt.Errorf("transport kernel: %w", err)
	}

	// Both backends are measured on every workload, at the workload's frame
	// size, so a backend change shows even on the workload that bypasses it.
	frame := min(size, 4000)
	if err := fabricKernel("simnet", func() netback.Network { return simnet.New(simnet.FastConfig()) }, frame, iters(3000), iters(20000), vals); err != nil {
		return err
	}
	if err := fabricKernel("tcpnet", func() netback.Network { return tcpnet.New(tcpnet.Config{}) }, frame, iters(3000), iters(20000), vals); err != nil {
		return err
	}
	lan := simnet.FastConfig()
	lan.InterSiteDelay = time.Millisecond
	over, err := delayOvershoot(lan, frame, iters(200))
	if err != nil {
		return err
	}
	vals["simnet.delay_overshoot_us"] = over
	return nil
}

// best times batches of n calls of fn and returns the fastest batch's time
// per call in nanoseconds: interference only ever adds time, so the minimum
// is the repeatable figure.
func best(batches, n int, fn func()) float64 {
	bestNs := 0.0
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if ns := float64(time.Since(t0)) / float64(n); b == 0 || ns < bestNs {
			bestNs = ns
		}
	}
	return bestNs
}

// allocsPer returns the heap allocations per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// wirePacket builds a daemon-to-daemon packet shaped like the ones w puts
// on the wire: a multicast data packet around the application message, or
// for churn_lan a state-transfer block. The field names mirror
// internal/protos/wire.go; only the shape matters here.
func wirePacket(w *workload) *msg.Message {
	sender := addr.NewProcess(1, 0, 1)
	group := addr.NewGroup(1, 0, 1)
	pkt := msg.New()
	pkt.PutAddress("&group", group)
	if w.kind == kindChurn {
		pkt.PutBytes("&sdata", make([]byte, stateBlock))
		pkt.PutInt("&slast", 0)
		pkt.PutInt("&xferid", 7)
		pkt.PutAddressList("&procs", addr.List{sender})
		return pkt
	}
	app := msg.New().PutInt("n", 12345).PutBytes("p", make([]byte, w.payload))
	pkt.PutInt("&proto", 1)
	pkt.PutInt("&viewid", 3)
	pkt.PutAddress("&msgid", sender)
	pkt.PutInt("&msgseq", 12345)
	pkt.PutAddress("&sender", sender)
	pkt.PutInt("&rank", 0)
	pkt.PutInt("&entry", int64(entry))
	if w.kind == kindStream {
		pkt.PutBytes("&vt", vclock.VC{12345, 0, 0}.Encode())
	} else {
		app.PutInt(msg.FSession, 12345)
	}
	pkt.PutMessage("&payload", app)
	return pkt
}

// The kernels store each measured call's result in a variable of their own
// and keep it alive past the loop, so the compiler cannot drop the call.

func msgKernel(pkt *msg.Message, enc []byte, n int, vals map[string]float64) {
	var (
		seq int64
		b   []byte
		m   *msg.Message
	)
	vals["msg.marshal_ns"] = best(5, n, func() {
		seq++
		pkt.PutInt("&call", seq) // a mutation, so every encoding is a fresh one
		b, _ = pkt.Marshal()
	})
	vals["msg.cached_marshal_ns"] = best(5, n, func() { b, _ = pkt.CachedMarshal() })
	into := msg.New()
	vals["msg.unmarshal_into_ns"] = best(5, n, func() { _ = msg.UnmarshalInto(into, enc) })
	vals["msg.encoded_bytes"] = float64(len(enc))
	vals["msg.allocs_per_roundtrip"] = allocsPer(n, func() {
		b, _ = pkt.Marshal()
		m, _ = msg.Unmarshal(b)
	})
	runtime.KeepAlive(b)
	runtime.KeepAlive(m)
}

// orderingKernels time the vector-clock and delivery-queue primitives at
// the benchmark's view size of three.
func orderingKernels(n int, vals map[string]float64) {
	vc := vclock.VC{41, 17, 23}
	buf := make([]byte, 0, 64)
	vals["vclock.encode_ns"] = best(5, n, func() { buf = vc.AppendEncode(buf[:0]) })
	enc := vc.Encode()
	dst := vclock.New(3)
	vals["vclock.decode_into_ns"] = best(5, n, func() { dst, _ = vclock.DecodeInto(dst, enc) })
	ts := vclock.VC{42, 17, 23}
	ok := false
	vals["vclock.deliverable_ns"] = best(5, n, func() { ok = vc.Deliverable(ts, 0) })
	runtime.KeepAlive(ok)

	sender := addr.NewProcess(1, 0, 1)
	tx, rx := core.NewCausalQueue(0, 3), core.NewCausalQueue(1, 3)
	var (
		seq    uint64
		causal []core.CausalIncoming
		total  []core.TotalDelivery
	)
	vals["core.causal_send_receive_ns"] = best(5, max(n/4, 1), func() {
		seq++
		vt := tx.PrepareSend()
		causal = rx.Receive(core.CausalIncoming{ID: core.MsgID{Sender: sender, Seq: seq}, SenderRank: 0, VT: vt})
	})
	tq := core.NewTotalQueue(0)
	vals["core.total_propose_commit_ns"] = best(5, max(n/4, 1), func() {
		seq++
		id := core.MsgID{Sender: sender, Seq: seq}
		total = tq.Commit(id, tq.Propose(id, nil))
	})
	view := core.View{Group: addr.NewGroup(1, 0, 1), Name: "bench", ID: 3,
		Members: []addr.Address{sender, addr.NewProcess(2, 0, 1), addr.NewProcess(3, 0, 1)}}
	joiner := addr.NewProcess(4, 0, 1)
	cq := core.NewCausalQueue(0, 3)
	vals["core.view_change_ns"] = best(5, max(n/20, 1), func() {
		grown := view.WithJoined(joiner)
		cq.InstallView(0, grown.Size())
		shrunk := grown.WithRemoved(joiner)
		causal = cq.InstallView(0, shrunk.Size())
	})
	runtime.KeepAlive(causal)
	runtime.KeepAlive(total)
}

// transportKernel runs a pair of reliable-transport endpoints over the
// workload's own fabric: first a ping-pong of size-byte messages (latency),
// then a one-way stream through a 64-message window (throughput, framing).
func transportKernel(fabric netback.Network, size, pings, stream int, vals map[string]float64) error {
	epA, err := fabric.Attach(1, 1)
	if err != nil {
		return err
	}
	epB, err := fabric.Attach(2, 1)
	if err != nil {
		return err
	}
	cfg := transport.DefaultConfig(fabric.Profile())
	var (
		sentAt   time.Time
		oneway   []time.Duration
		pong     = make(chan time.Time, 1)
		slots    = make(chan struct{}, window)
		echo     = true
		streamed = make(chan struct{})
		want     int
		got      int
	)
	var a, b *transport.Transport
	a, err = transport.New(epA, cfg, func(netback.SiteID, []byte) { pong <- time.Now() })
	if err != nil {
		return err
	}
	defer a.Close()
	b, err = transport.New(epB, cfg, func(_ netback.SiteID, data []byte) {
		if echo {
			oneway = append(oneway, time.Since(sentAt))
			_ = b.Send(1, data)
			return
		}
		<-slots
		if got++; got == want {
			close(streamed)
		}
	})
	if err != nil {
		return err
	}
	defer b.Close()

	payload := make([]byte, size)
	if d := fabric.Profile().Delay; d > 0 {
		pings = max(pings/20, 10) // each one waits out two link delays
	}
	var rtt, call []time.Duration
	for i := 0; i < pings+pings/10; i++ {
		sentAt = time.Now()
		if err := a.Send(2, payload); err != nil {
			return err
		}
		returned := time.Now()
		select {
		case at := <-pong:
			if i >= pings/10 { // the first tenth warms the connection up
				rtt = append(rtt, at.Sub(sentAt))
				call = append(call, returned.Sub(sentAt))
			}
		case <-time.After(5 * time.Second):
			return fmt.Errorf("ping %d was never answered", i)
		}
	}
	vals["transport.oneway_us"] = percentile(micros(oneway[len(oneway)-pings:]), 50)
	vals["transport.rtt_us"] = percentile(micros(rtt), 50)
	vals["transport.send_call_us"] = percentile(micros(call), 50)

	echo, want = false, stream
	var m0, m1 runtime.MemStats
	s0 := a.Stats()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < want; i++ {
		slots <- struct{}{}
		if err := a.Send(2, payload); err != nil {
			return err
		}
	}
	select {
	case <-streamed:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("stream stalled at %d of %d messages", got, want)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	s1 := a.Stats()
	n := float64(want)
	vals["transport.stream_msgs_per_s"] = n / elapsed.Seconds()
	vals["transport.frames_per_msg"] = float64(s1.FramesSent-s0.FramesSent) / n
	vals["transport.coalesced_share"] = float64(s1.Coalesced-s0.Coalesced) / float64(max(s1.FragmentsSent-s0.FragmentsSent, 1))
	vals["transport.allocs_per_msg"] = float64(m1.Mallocs-m0.Mallocs) / n

	// Ack behaviour over both phases and both directions.
	sa, sb := a.Stats(), b.Stats()
	dedicated := float64(sa.AcksSent + sb.AcksSent)
	piggy := float64(sa.AcksPiggybacked + sb.AcksPiggybacked)
	vals["transport.acks_per_msg"] = dedicated / float64(sa.MessagesSent+sb.MessagesSent)
	vals["transport.piggyback_share"] = piggy / max(piggy+dedicated, 1)
	vals["transport.retransmits"] = float64(sa.Retransmissions + sb.Retransmissions)
	return nil
}

// kernelTimeout bounds each receive loop of the fabric kernels; the loops
// take well under a second when no packet is lost.
const kernelTimeout = 20 * time.Second

// fabricKernel measures one backend below the transport: a packet from
// Endpoint.Send to the peer's Recv channel.
func fabricKernel(name string, open func() netback.Network, size, pings, frames int, vals map[string]float64) error {
	payload := make([]byte, size)

	fabric := open()
	defer fabric.Close()
	a, b, err := attachPair(fabric)
	if err != nil {
		return fmt.Errorf("%s kernel: %w", name, err)
	}
	if err := sendUntilReceived(a, b, payload); err != nil {
		return fmt.Errorf("%s kernel: %w", name, err)
	}
	for stale := true; stale; { // copies of a packet sendUntilReceived had to repeat
		select {
		case <-b.Recv():
		case <-time.After(5 * time.Millisecond):
			stale = false
		}
	}
	var oneway, call []time.Duration
	var m0, m1 runtime.MemStats
	lost := time.After(kernelTimeout) // one timer for the loop: none is set up between Send and Recv
	runtime.ReadMemStats(&m0)
	for i := 0; i < pings; i++ {
		t0 := time.Now()
		if err := a.Send(2, payload); err != nil {
			return fmt.Errorf("%s kernel: %w", name, err)
		}
		returned := time.Now()
		select {
		case <-b.Recv():
		case <-lost:
			return fmt.Errorf("%s kernel: packet %d of %d never arrived", name, i, pings)
		}
		oneway = append(oneway, time.Since(t0))
		call = append(call, returned.Sub(t0))
	}
	runtime.ReadMemStats(&m1)
	vals[name+".oneway_us"] = percentile(micros(oneway), 50)
	vals[name+".send_call_us"] = percentile(micros(call), 50)
	vals[name+".allocs_per_pkt"] = float64(m1.Mallocs-m0.Mallocs) / float64(pings)
	if name != "tcpnet" {
		return nil
	}

	// Time to the first packet on a fresh fabric: attach, connect, deliver.
	var dials []time.Duration
	for i := 0; i < 5; i++ {
		fabric := open()
		t0 := time.Now()
		a, b, err := attachPair(fabric)
		if err == nil {
			err = sendUntilReceived(a, b, payload)
		}
		dials = append(dials, time.Since(t0))
		fabric.Close()
		if err != nil {
			return fmt.Errorf("%s kernel: %w", name, err)
		}
	}
	vals["tcpnet.dial_us"] = percentile(micros(dials), 50)

	// One-way stream through a 64-frame window. The receiver frees a slot per
	// frame and ends with the last frame or when the sender gives up.
	slots := make(chan struct{}, window)
	received := make(chan struct{})
	giveUp := make(chan struct{})
	go func() {
		defer close(received)
		for i := 0; i < frames; i++ {
			select {
			case <-b.Recv():
				<-slots
			case <-giveUp:
				return
			}
		}
	}()
	abandon := func(err error) error {
		close(giveUp)
		<-received
		return fmt.Errorf("tcpnet kernel: %w", err)
	}
	lost = time.After(kernelTimeout)
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		select {
		case slots <- struct{}{}:
		case <-lost:
			return abandon(fmt.Errorf("the stream stalled at frame %d of %d", i, frames))
		}
		if err := a.Send(2, payload); err != nil {
			return abandon(err)
		}
	}
	select {
	case <-received:
	case <-lost:
		return abandon(fmt.Errorf("the last of %d frames never arrived", frames))
	}
	vals["tcpnet.stream_frames_per_s"] = float64(frames) / time.Since(t0).Seconds()
	return nil
}

func attachPair(fabric netback.Network) (a, b netback.Endpoint, err error) {
	if a, err = fabric.Attach(1, 1); err != nil {
		return nil, nil, err
	}
	b, err = fabric.Attach(2, 1)
	return a, b, err
}

// sendUntilReceived sends payload from a until b receives a copy; a fabric
// may drop packets while its connection is still being set up.
func sendUntilReceived(a, b netback.Endpoint, payload []byte) error {
	deadline := time.After(5 * time.Second)
	for {
		if err := a.Send(2, payload); err != nil {
			return err
		}
		select {
		case <-b.Recv():
			return nil
		case <-time.After(50 * time.Millisecond):
		case <-deadline:
			return fmt.Errorf("no packet arrived within 5s")
		}
	}
}

// delayOvershoot is how much longer than the configured delay a packet
// takes on the simulated LAN of churn_lan, in µs.
func delayOvershoot(cfg simnet.Config, size, pings int) (float64, error) {
	fabric := simnet.New(cfg)
	defer fabric.Close()
	a, b, err := attachPair(fabric)
	if err != nil {
		return 0, err
	}
	payload := make([]byte, size)
	var oneway []time.Duration
	lost := time.After(kernelTimeout)
	for i := 0; i < pings; i++ {
		t0 := time.Now()
		if err := a.Send(2, payload); err != nil {
			return 0, err
		}
		select {
		case <-b.Recv():
		case <-lost:
			return 0, fmt.Errorf("simnet kernel: delayed packet %d of %d never arrived", i, pings)
		}
		oneway = append(oneway, time.Since(t0))
	}
	return percentile(micros(oneway), 50) - float64(cfg.InterSiteDelay)/float64(time.Microsecond), nil
}
