package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	isis "repro"
)

// streamTCP: the TCP-loopback backend, 3 sites, one member per site. The
// site-1 member sends asynchronous CBCASTs in windows of streamWindow, sizes
// drawn from the seed, then waits until the window's last message has been
// delivered at all three members. The transport has no send window, so the
// closed loop over windows is what keeps the offered load repeatable.
type streamTCP struct {
	seed     int64
	c        *isis.Cluster
	gid      isis.Address
	procs    []*isis.Process
	members  [groupSize]*streamMember
	sizes    sizeStream
	variants payloadVariants
	chk      checker
	tr       atomic.Pointer[tracer] // set only while a traced window runs

	sent   int64 // messages sent so far; the next sequence number
	castAt [streamWindow]int64
}

const streamWindow = 64

// streamMember is one member's receive state. Only its handler writes next.
type streamMember struct {
	progress
	next int64
}

// progress tracks how far one receiver has got through a stream of
// sequence-numbered messages, so that the sender can wait for a window.
type progress struct {
	deliverAt [streamWindow]int64 // ns since streamBase, by sequence modulo the window
	delivered atomic.Int64        // messages delivered
	target    atomic.Int64        // the sender waits until delivered reaches it
	notify    chan struct{}
}

func newProgress() progress { return progress{notify: make(chan struct{}, 1)} }

// record notes the delivery of message seq, count messages in all.
func (p *progress) record(seq, count int64) {
	p.deliverAt[seq%streamWindow] = sinceBase()
	p.delivered.Store(count)
	if count >= p.target.Load() {
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
}

// await blocks until end messages have been delivered; false if timeout
// fires first.
func (p *progress) await(end int64, timeout <-chan time.Time) bool {
	for p.delivered.Load() < end {
		select {
		case <-p.notify:
		case <-timeout:
			return false
		}
	}
	return true
}

// errStreamStuck ends a window whose messages never all arrived.
var errStreamStuck = errors.New("window not delivered at every member within 10s")

var streamBase = time.Now()

func sinceBase() int64 { return int64(time.Since(streamBase)) }

func newStreamTCP(seed int64) *streamTCP {
	w := &streamTCP{seed: seed, sizes: newSizeStream(seed), variants: newPayloadVariants(seed)}
	for i := range w.members {
		w.members[i] = &streamMember{progress: newProgress()}
	}
	return w
}

func (w *streamTCP) cluster() *isis.Cluster { return w.c }
func (w *streamTCP) tracing(tr *tracer)     { w.tr.Store(tr) }

func (w *streamTCP) close() {
	if w.c != nil {
		w.c.Close()
	}
}

func (w *streamTCP) setup() error {
	c, err := isis.NewCluster(clusterConfig(3, isis.BackendTCP))
	if err != nil {
		return err
	}
	w.c = c
	w.gid, w.procs, err = formGroup(c, "stream-tcp", []isis.SiteID{1, 2, 3}, func(i int, p *isis.Process) {
		p.BindEntry(entryCB, w.handler(i))
	})
	if err != nil {
		return err
	}
	for i := 0; i < 16; i++ {
		if _, err := w.window(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return w.chk.err()
}

func (w *streamTCP) handler(i int) func(*isis.Message) {
	sm := w.members[i]
	return func(m *isis.Message) {
		seq := m.GetInt("seq", -1)
		w.tr.Load().stamp(seq, markDeliver, i)
		if !checksumOK(m) {
			w.chk.fail("member %d: message %d: payload checksum mismatch", i, seq)
		}
		if seq != sm.next {
			w.chk.fail("member %d: got message %d, want %d", i, seq, sm.next)
		}
		sm.next = max(sm.next, seq+1)
		if seq >= 0 {
			sm.record(seq, sm.next)
		}
	}
}

// streamMessage is one stream-tcp message: its sequence number and a
// checksummed payload.
func streamMessage(seq int64, v variant) *isis.Message {
	return isis.NewMessage().PutInt("seq", seq).PutInt("crc", int64(v.crc)).PutBytes("d", v.d)
}

// windowResult is one window's outcome.
type windowResult struct {
	rtt   float64   // ms, first Cast to last delivery at every member
	msgs  []float64 // ms, each message's Cast to its delivery at every member
	bytes int64
}

// window sends one window and waits for it to be delivered everywhere.
func (w *streamTCP) window() (windowResult, error) {
	var res windowResult
	end := w.sent + streamWindow
	for _, sm := range w.members {
		sm.target.Store(end)
	}
	tr := w.tr.Load()
	p, dests := w.procs[0], []isis.Address{w.gid}
	start := time.Now()
	for k := 0; k < streamWindow; k++ {
		seq := w.sent
		n := w.sizes.next()
		m := streamMessage(seq, w.variants[n][seq%variantsPerSize])
		tr.stamp(seq, markCastStart, 0)
		w.castAt[k] = sinceBase()
		if _, err := p.Cast(isis.CBCAST, dests, entryCB, m); err != nil {
			return res, fmt.Errorf("cast %d: %w", seq, err)
		}
		tr.stamp(seq, markCastEnd, 0)
		w.sent++
		res.bytes += int64(n)
	}
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for _, sm := range w.members {
		if !sm.await(end, timeout.C) {
			return res, errStreamStuck
		}
	}
	res.rtt = ms(time.Since(start))
	for k := 0; k < streamWindow; k++ {
		last := int64(0)
		for _, sm := range w.members {
			last = max(last, sm.deliverAt[k])
		}
		res.msgs = append(res.msgs, float64(last-w.castAt[k])/1e6)
	}
	return res, nil
}

func (w *streamTCP) measure(d time.Duration) *phase {
	start := time.Now()
	until := start.Add(d)
	ph := &phase{}
	for time.Now().Before(until) {
		ph.attempted += streamWindow
		res, err := w.window()
		if err != nil {
			// A lost message leaves a FIFO gap no later window can fill.
			ph.failed += streamWindow
			w.chk.fail("%v", err)
			break
		}
		ph.ops += streamWindow
		ph.bytes += res.bytes
		ph.latA = append(ph.latA, res.rtt)
		ph.latB = append(ph.latB, res.msgs...)
	}
	ph.elapsed = time.Since(start)
	ph.alias("window_p50_ms", "ms", ph.latA, 50)
	ph.alias("window_p99_ms", "ms", ph.latA, 99)
	ph.violations = w.chk.err()
	return ph
}

// check: every member delivered every message sent, exactly once and in
// order (the handler checks each delivery against the expected sequence).
func (w *streamTCP) check() error {
	for i, sm := range w.members {
		if got := sm.delivered.Load(); got != w.sent {
			return fmt.Errorf("member %d delivered %d messages, %d were sent", i, got, w.sent)
		}
	}
	return nil
}

func (w *streamTCP) layerExtras(*tracer, map[string]float64) {}
