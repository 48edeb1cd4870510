package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	isis "repro"
)

// rpcMix: simnet with no injected delay, 3 sites, one member per site. The
// members at sites 1 and 2 are closed-loop clients; each op is an ABCAST or
// a CBCAST (50/50 from the seed) with a 64 B payload that waits for a reply
// from every member.
type rpcMix struct {
	seed  int64
	c     *isis.Cluster
	gid   isis.Address
	procs []*isis.Process
	logs  [groupSize]rpcLog
	kinds [2]kindStream
	chk   checker
	tr    atomic.Pointer[tracer] // set only while a traced window runs

	// Per-client state, touched only by that client's goroutine while a
	// window runs.
	nextOp [2]int64
	cbSeq  [2]int64 // CBCASTs issued, the next sequence number to send
	abOK   [2]int64 // ABCASTs that completed
}

// rpcLog is what one member delivered.
type rpcLog struct {
	mu     sync.Mutex
	ab     []int64  // ABCAST op ids in delivery order
	cbNext [2]int64 // next CBCAST sequence number expected from each client
}

const rpcClients = 2

func newRPCMix(seed int64) *rpcMix {
	w := &rpcMix{seed: seed}
	for c := range w.kinds {
		w.kinds[c] = newKindStream(seed, c)
	}
	return w
}

func (w *rpcMix) cluster() *isis.Cluster { return w.c }
func (w *rpcMix) tracing(tr *tracer)     { w.tr.Store(tr) }

func (w *rpcMix) close() {
	if w.c != nil {
		w.c.Close()
	}
}

func (w *rpcMix) setup() error {
	c, err := isis.NewCluster(clusterConfig(3, isis.BackendSimnet))
	if err != nil {
		return err
	}
	w.c = c
	w.gid, w.procs, err = formGroup(c, "rpc-mix", []isis.SiteID{1, 2, 3}, func(i int, p *isis.Process) {
		p.BindEntry(entryAB, w.handler(i, p, true))
		p.BindEntry(entryCB, w.handler(i, p, false))
	})
	if err != nil {
		return err
	}
	// Warm-up: a fixed number of ops, not a fixed time.
	var res [rpcClients]rpcResult
	w.runClients(time.Time{}, 100, &res)
	if err := w.chk.err(); err != nil {
		return err
	}
	if f := res[0].failed + res[1].failed; f > 0 {
		return fmt.Errorf("%d warm-up ops failed", f)
	}
	return nil
}

func (w *rpcMix) handler(i int, p *isis.Process, ab bool) func(*isis.Message) {
	lg := &w.logs[i]
	return func(m *isis.Message) {
		tr := w.tr.Load()
		op := m.GetInt("op", -1)
		tr.stamp(op, markDeliver, i)
		if !checksumOK(m) {
			w.chk.fail("member %d: op %d: payload checksum mismatch", i, op)
		}
		lg.mu.Lock()
		if ab {
			lg.ab = append(lg.ab, op)
		} else {
			c, s := m.GetInt("c", -1), m.GetInt("s", -1)
			switch {
			case c < 0 || c >= rpcClients:
				w.chk.fail("member %d: op %d: CBCAST from unknown client %d", i, op, c)
			case s != lg.cbNext[c]:
				w.chk.fail("member %d: CBCAST from client %d: got seq %d, want %d", i, c, s, lg.cbNext[c])
				lg.cbNext[c] = max(lg.cbNext[c], s+1)
			default:
				lg.cbNext[c] = s + 1
			}
		}
		lg.mu.Unlock()
		tr.stamp(op, markReplyStart, i)
		if err := p.Reply(m, isis.NewMessage()); err != nil {
			w.chk.fail("member %d: op %d: reply: %v", i, op, err)
		}
		tr.stamp(op, markReplyEnd, i)
	}
}

// rpcResult is one client's tally for a window.
type rpcResult struct {
	attempted, failed int64
	ab, cb            []float64 // round trips in ms
}

// rpcMessage is one rpc-mix op: its id, the client, for a CBCAST the
// client's CBCAST sequence number (seq >= 0), and a checksummed payload.
func rpcMessage(seed, op int64, client int, seq int64) *isis.Message {
	d, crc := payload(seed, op, rpcPayloadSize)
	m := isis.NewMessage().PutInt("op", op).PutInt("c", int64(client))
	if seq >= 0 {
		m.PutInt("s", seq)
	}
	return m.PutInt("crc", int64(crc)).PutBytes("d", d)
}

// runClients runs both clients until the deadline (or, with a zero
// deadline, for ops operations each).
func (w *rpcMix) runClients(until time.Time, ops int, res *[rpcClients]rpcResult) {
	var wg sync.WaitGroup
	for c := 0; c < rpcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.client(c, until, ops, &res[c])
		}(c)
	}
	wg.Wait()
}

func (w *rpcMix) client(c int, until time.Time, ops int, res *rpcResult) {
	p := w.procs[c]
	dests := []isis.Address{w.gid}
	for n := 0; ; n++ {
		if until.IsZero() && n >= ops || !until.IsZero() && !time.Now().Before(until) {
			return
		}
		kind := w.kinds[c].next()
		op := int64(c)<<40 | w.nextOp[c]
		w.nextOp[c]++
		entry, seq := entryAB, int64(-1)
		if kind == isis.CBCAST {
			entry, seq = entryCB, w.cbSeq[c]
			w.cbSeq[c]++
		}
		m := rpcMessage(w.seed, op, c, seq)

		tr := w.tr.Load()
		tr.stamp(op, markCastStart, c)
		start := time.Now()
		replies, err := p.Cast(kind, dests, entry, m, isis.Replies(isis.All))
		rtt := ms(time.Since(start))
		tr.stamp(op, markCastEnd, c)
		res.attempted++
		if err != nil || len(replies) != len(w.procs) {
			res.failed++
			continue
		}
		if kind == isis.ABCAST {
			w.abOK[c]++
			res.ab = append(res.ab, rtt)
		} else {
			res.cb = append(res.cb, rtt)
		}
	}
}

func (w *rpcMix) measure(d time.Duration) *phase {
	var res [rpcClients]rpcResult
	start := time.Now()
	w.runClients(start.Add(d), 0, &res)
	ph := &phase{elapsed: time.Since(start)}
	for _, r := range res {
		ph.attempted += r.attempted
		ph.failed += r.failed
		ph.latA = append(ph.latA, r.ab...)
		ph.latB = append(ph.latB, r.cb...)
	}
	ph.ops = int64(len(ph.latA) + len(ph.latB))
	ph.bytes = ph.ops * rpcPayloadSize
	ph.alias("abcast_p50_ms", "ms", ph.latA, 50)
	ph.alias("abcast_p99_ms", "ms", ph.latA, 99)
	ph.alias("cbcast_p50_ms", "ms", ph.latB, 50)
	ph.alias("cbcast_p99_ms", "ms", ph.latB, 99)
	ph.violations = w.chk.err()
	return ph
}

// check: the ABCAST delivery order is identical at every member and holds
// each completed ABCAST exactly once; every member delivered every CBCAST of
// each client, in order (the per-delivery FIFO check runs in the handler).
func (w *rpcMix) check() error {
	for i := range w.logs {
		w.logs[i].mu.Lock()
		defer w.logs[i].mu.Unlock()
	}
	ref := w.logs[0].ab
	seen := make(map[int64]bool, len(ref))
	for _, op := range ref {
		if seen[op] {
			return fmt.Errorf("ABCAST op %d delivered twice at member 0", op)
		}
		seen[op] = true
	}
	if want := w.abOK[0] + w.abOK[1]; int64(len(ref)) < want {
		return fmt.Errorf("member 0 delivered %d ABCASTs, %d completed", len(ref), want)
	}
	for i := 1; i < len(w.logs); i++ {
		if !slices.Equal(w.logs[i].ab, ref) {
			return fmt.Errorf("ABCAST delivery order differs between member 0 and member %d", i)
		}
	}
	for i := range w.logs {
		for c := 0; c < rpcClients; c++ {
			if got := w.logs[i].cbNext[c]; got != w.cbSeq[c] {
				return fmt.Errorf("member %d delivered %d CBCASTs from client %d, %d were sent", i, got, c, w.cbSeq[c])
			}
		}
	}
	return nil
}

func (w *rpcMix) layerExtras(*tracer, map[string]float64) {}
