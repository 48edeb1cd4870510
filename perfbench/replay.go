package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	isis "repro"
	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/msg"
	"repro/internal/netback"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Layer replays call one layer's public functions with inputs drawn from
// the workload generator for the run's seed, with no cluster running. Each
// reports time per call (median of several batches) and allocations per
// call.

func replays(workload string, seed int64, vals map[string]float64) error {
	replayMsg(workload, seed, vals)
	replayVclock(seed, vals)
	replayCausal(seed, vals)
	replayTotal(seed, vals)
	replayBus(vals)
	return errors.Join(
		replayTransport("sim", seed, vals),
		replayTransport("tcp", seed, vals),
		replaySingleSite(vals),
	)
}

// perCall times fn(n) in batches of about 20ms and returns the median
// nanoseconds per call over five batches.
func perCall(fn func(n int)) float64 {
	n := 1
	for {
		start := time.Now()
		fn(n)
		if d := time.Since(start); d > 5*time.Millisecond {
			n = int(float64(n)*float64(20*time.Millisecond)/float64(d)) + 1
			break
		}
		n *= 2
	}
	per := make([]float64, 5)
	for i := range per {
		start := time.Now()
		fn(n)
		per[i] = float64(time.Since(start)) / float64(n)
	}
	return median(per)
}

// allocsPerCall counts heap allocations over n calls.
func allocsPerCall(fn func(n int), n int) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn(n)
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// workloadMessages builds 64 of the application messages the workload
// sends, with the reply session Cast adds when it waits for replies.
func workloadMessages(workload string, seed int64) []*msg.Message {
	var out []*msg.Message
	sizes := newSizeStream(seed)
	variants := newPayloadVariants(seed)
	kinds := newKindStream(seed, 0)
	for i := int64(0); i < 64; i++ {
		var m *msg.Message
		switch workload {
		case "stream-tcp":
			m = streamMessage(i, variants[sizes.next()][i%variantsPerSize])
		case "churn":
			m = backgroundMessage(seed, i).PutInt(msg.FSession, i)
			if i == 0 { // one state-transfer block per join
				d, _ := payload(seed, -1, churnStateSize)
				m = msg.New().PutBytes("block", d)
			}
		default:
			seq := int64(-1)
			if kinds.next() == isis.CBCAST {
				seq = i
			}
			m = rpcMessage(seed, i, 0, seq).PutInt(msg.FSession, i)
		}
		out = append(out, m)
	}
	return out
}

func replayMsg(workload string, seed int64, vals map[string]float64) {
	msgs := workloadMessages(workload, seed)
	encoded := make([][]byte, len(msgs))
	for i, m := range msgs {
		encoded[i], _ = m.Marshal()
	}
	marshal := func(n int) {
		for i := 0; i < n; i++ {
			_, _ = msgs[i%len(msgs)].Marshal()
		}
	}
	unmarshal := func(n int) {
		for i := 0; i < n; i++ {
			_, _ = msg.Unmarshal(encoded[i%len(encoded)])
		}
	}
	vals["msg.marshal_ns"] = perCall(marshal)
	vals["msg.unmarshal_ns"] = perCall(unmarshal)
	vals["msg.allocs_per_roundtrip"] = allocsPerCall(func(n int) {
		for i := 0; i < n; i++ {
			b, _ := msgs[i%len(msgs)].Marshal()
			_, _ = msg.Unmarshal(b)
		}
	}, 4096)
}

// replayVclock uses 3-member clocks, the group size of every workload.
func replayVclock(seed int64, vals map[string]float64) {
	r := rng(seed, "replay/vclock")
	type pair struct {
		v, ts vclock.VC
		rank  int
	}
	pairs := make([]pair, 256)
	for i := range pairs {
		v := vclock.New(3)
		for k := range v {
			v[k] = uint64(r.Intn(1 << 20))
		}
		ts := v.Clone()
		rank := r.Intn(3)
		ts[rank]++
		if r.Intn(2) == 0 { // half are blocked on another sender
			ts[(rank+1)%3]++
		}
		pairs[i] = pair{v, ts, rank}
	}
	var sink atomic.Bool
	vals["vclock.deliverable_ns"] = perCall(func(n int) {
		ok := false
		for i := 0; i < n; i++ {
			p := pairs[i%len(pairs)]
			ok = ok != p.v.Deliverable(p.ts, p.rank)
		}
		sink.Store(ok)
	})
	buf := make([]byte, 0, 64)
	dst := vclock.New(3)
	codec := func(n int) {
		for i := 0; i < n; i++ {
			buf = pairs[i%len(pairs)].ts.AppendEncode(buf[:0])
			dst, _ = vclock.DecodeInto(dst, buf)
		}
	}
	vals["vclock.codec_ns"] = perCall(codec)
	vals["vclock.codec_allocs"] = allocsPerCall(codec, 4096)
}

// replayCausal feeds a 3-member causal queue at rank 2 the CBCASTs of the
// two rpc-mix clients (ranks 0 and 1) in the seed's interleaving, with one
// in eight adjacent pairs swapped so that the queue also buffers.
func replayCausal(seed int64, vals map[string]float64) {
	r := rng(seed, "replay/causal")
	const n = 4096
	senders := [2]addr.Address{addr.NewProcess(1, 0, 1), addr.NewProcess(2, 0, 1)}
	clock := vclock.New(3)
	in := make([]core.CausalIncoming, n)
	for i := range in {
		s := r.Intn(2)
		clock.Tick(s)
		in[i] = core.CausalIncoming{ID: core.MsgID{Sender: senders[s], Seq: clock[s]}, SenderRank: s, VT: clock.Clone()}
	}
	for i := 0; i+1 < n; i += 2 {
		if r.Intn(8) == 0 {
			in[i], in[i+1] = in[i+1], in[i]
		}
	}
	run := func(reps int) {
		for k := 0; k < reps; k++ {
			q := core.NewCausalQueue(2, 3)
			for _, m := range in {
				q.Receive(m)
			}
		}
	}
	vals["core.causal_receive_ns"] = perCall(run) / n
	vals["core.causal_allocs_per_msg"] = allocsPerCall(run, 4) / n
}

// replayTotal runs one member's total-order queue for two interleaved
// initiators: each message is proposed, and committed (at its proposal or
// one above, as another member's proposal may win) after the next one is
// proposed, so two are always in flight.
func replayTotal(seed int64, vals map[string]float64) {
	r := rng(seed, "replay/total")
	const n = 4096
	senders := [2]addr.Address{addr.NewProcess(1, 0, 1), addr.NewProcess(2, 0, 1)}
	ids := make([]core.MsgID, n)
	bump := make([]uint64, n)
	var seq [2]uint64
	for i := range ids {
		s := r.Intn(2)
		seq[s]++
		ids[i] = core.MsgID{Sender: senders[s], Seq: seq[s]}
		bump[i] = uint64(r.Intn(2))
	}
	run := func(reps int) {
		for k := 0; k < reps; k++ {
			q := core.NewTotalQueue(0)
			prev := uint64(0)
			for i, id := range ids {
				p := q.Propose(id, nil)
				if i > 0 {
					q.Commit(ids[i-1], prev)
				}
				prev = p + bump[i]
			}
			q.Commit(ids[n-1], prev)
		}
	}
	vals["core.total_propose_commit_ns"] = perCall(run) / n
	vals["core.total_allocs_per_msg"] = allocsPerCall(run, 4) / n
}

// replayBus publishes the membership-path event kinds on a bus with 0, 1
// and 8 draining subscribers.
func replayBus(vals map[string]float64) {
	kinds := []events.Kind{events.FlushBegin, events.FlushComplete, events.ViewInstalled, events.ViewCommitted}
	group := addr.NewGroup(1, 0, 1)
	for _, subs := range []int{0, 1, 8} {
		b := events.NewBus(1)
		var wg sync.WaitGroup
		for i := 0; i < subs; i++ {
			ch, _ := b.Subscribe(events.Filter{}, 1<<16)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range ch {
				}
			}()
		}
		publish := func(n int) {
			for i := 0; i < n; i++ {
				b.Publish(events.Event{Kind: kinds[i%len(kinds)], Group: group, View: core.ViewID(i)})
			}
		}
		vals[fmt.Sprintf("events.publish_ns_%dsub", subs)] = perCall(publish)
		if subs == 1 {
			vals["events.publish_allocs_1sub"] = allocsPerCall(publish, 4096)
		}
		b.Close()
		wg.Wait()
	}
}

// replayTransport runs a transport.New pair over one backend, replaying
// stream-tcp's size mix in closed-loop windows for about a second.
func replayTransport(backend string, seed int64, vals map[string]float64) error {
	var fabric netback.Network
	var ep1, ep2 netback.Endpoint
	switch backend {
	case "sim":
		n := simnet.New(simnet.FastConfig())
		fabric, ep1, ep2 = n, n.AddSite(1), n.AddSite(2)
	default:
		n := tcpnet.New(tcpnet.Config{})
		fabric = n
		var err1, err2 error
		ep1, err1 = n.Attach(1, 1)
		ep2, err2 = n.Attach(2, 1)
		if err := errors.Join(err1, err2); err != nil {
			n.Close()
			return fmt.Errorf("transport replay: %w", err)
		}
	}
	defer fabric.Close()
	cfg := transport.DefaultConfig(fabric.Profile())

	rx := newProgress()
	recv := func(_ transport.SiteID, data []byte) {
		seq := int64(binary.LittleEndian.Uint64(data))
		rx.record(seq, seq+1)
	}
	t1, err := transport.New(ep1, cfg, nil)
	if err != nil {
		return err
	}
	defer t1.Close()
	t2, err := transport.New(ep2, cfg, recv)
	if err != nil {
		return err
	}
	defer t2.Close()

	sizes := newSizeStream(seed)
	variants := newPayloadVariants(seed)
	var sendNs, deliverUs []float64
	var sendAt [streamWindow]int64
	var msgs int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for time.Since(start) < time.Second {
		end := msgs + streamWindow
		rx.target.Store(end)
		for k := 0; k < streamWindow; k++ {
			v := variants[sizes.next()][msgs%variantsPerSize]
			data := make([]byte, 8+len(v.d))
			binary.LittleEndian.PutUint64(data, uint64(msgs))
			copy(data[8:], v.d)
			sendAt[k] = sinceBase()
			if err := t1.Send(2, data); err != nil {
				return fmt.Errorf("transport replay (%s): %w", backend, err)
			}
			sendNs = append(sendNs, float64(sinceBase()-sendAt[k]))
			msgs++
		}
		if !rx.await(end, time.After(10*time.Second)) {
			return fmt.Errorf("transport replay (%s): window not delivered within 10s", backend)
		}
		for k := 0; k < streamWindow; k++ {
			deliverUs = append(deliverUs, float64(rx.deliverAt[k]-sendAt[k])/1e3)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	s1, s2 := t1.Stats(), t2.Stats()
	p := "transport." + backend + "."
	n := float64(msgs)
	vals[p+"send_ns"] = median(sendNs)
	vals[p+"deliver_us_p50"] = median(deliverUs)
	vals[p+"frames_per_msg"] = float64(s1.FramesSent) / n
	if s1.FragmentsSent > 0 {
		vals[p+"coalesced_frac"] = float64(s1.Coalesced) / float64(s1.FragmentsSent)
	}
	vals[p+"acks_per_msg"] = float64(s2.AcksSent) / n
	vals[p+"retx_per_1k"] = float64(s1.Retransmissions) * 1000 / n
	vals[p+"allocs_per_msg"] = float64(m1.Mallocs-m0.Mallocs) / n
	vals[p+"pair_msgs_per_s"] = n / elapsed.Seconds()
	return nil
}

// replaySingleSite times ABCAST and CBCAST round trips in a 1-member group
// on one site: the stack with no network in the path.
func replaySingleSite(vals map[string]float64) error {
	c, err := isis.NewCluster(clusterConfig(1, isis.BackendSimnet))
	if err != nil {
		return err
	}
	defer c.Close()
	gid, procs, err := formGroup(c, "single", []isis.SiteID{1}, func(_ int, p *isis.Process) {
		reply := func(m *isis.Message) { _ = p.Reply(m, isis.NewMessage()) }
		p.BindEntry(entryAB, reply)
		p.BindEntry(entryCB, reply)
	})
	if err != nil {
		return fmt.Errorf("single-site replay: %w", err)
	}
	for _, k := range []struct {
		proto isis.Protocol
		entry isis.EntryID
		name  string
	}{{isis.ABCAST, entryAB, "abcast"}, {isis.CBCAST, entryCB, "cbcast"}} {
		var rtt []float64
		start := time.Now()
		for time.Since(start) < 500*time.Millisecond {
			t0 := time.Now()
			_, err := procs[0].Cast(k.proto, []isis.Address{gid}, k.entry, isis.NewMessage().PutInt("op", int64(len(rtt))), isis.Replies(isis.All))
			if err != nil {
				return fmt.Errorf("single-site replay: %w", err)
			}
			rtt = append(rtt, float64(time.Since(t0))/1e3)
		}
		vals["isis.single_site_"+k.name+"_us_p50"] = median(rtt[len(rtt)/10:]) // skip the warm-up tenth
	}
	return nil
}
