package main

import (
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	isis "repro"
	"repro/internal/tools/statexfer"
)

// churn: simnet with no injected delay, 4 sites, a 3-member group at sites
// 1-3 whose members provide a 16 KB state through statexfer. One goroutine
// at site 4 spawns a process, joins it with state transfer, then removes it,
// alternating a Leave and a Kill (a crash the process's own daemon detects
// without a timeout); after each removal it waits for the 3-member view at
// site 1. A second goroutine runs closed-loop ABCASTs with one reply from
// the site-2 member, so the window also shows how long ordinary traffic
// goes without service during view changes.
type churn struct {
	seed     int64
	c        *isis.Cluster
	gid      isis.Address
	procs    []*isis.Process // the long-lived members
	logs     [groupSize]churnLog
	state    []byte
	stateCRC uint32
	chk      checker
	tr       atomic.Pointer[tracer] // set only while a traced window runs

	crashNext bool  // the next removal is a Kill (else a Leave)
	bgNext    int64 // next background op id
	bgOK      int64 // background ABCASTs that completed

	changes []change // membership changes of the traced window
}

type churnLog struct {
	mu sync.Mutex
	ab []int64
}

// change is one membership change, kept for the traced window's spans.
type change struct {
	kind       string // join, leave or crash
	start, end time.Time
}

func newChurn(seed int64) *churn {
	w := &churn{seed: seed}
	w.state, w.stateCRC = payload(seed, -1, churnStateSize)
	return w
}

func (w *churn) cluster() *isis.Cluster { return w.c }
func (w *churn) tracing(tr *tracer)     { w.tr.Store(tr) }

func (w *churn) close() {
	if w.c != nil {
		w.c.Close()
	}
}

func (w *churn) setup() error {
	c, err := isis.NewCluster(clusterConfig(4, isis.BackendSimnet))
	if err != nil {
		return err
	}
	w.c = c
	w.gid, w.procs, err = formGroup(c, "churn", []isis.SiteID{1, 2, 3}, func(i int, p *isis.Process) {
		p.BindEntry(entryAB, w.handler(i, p))
	})
	if err != nil {
		return err
	}
	for _, p := range w.procs {
		if err := statexfer.Provide(p, w.gid, 0, func() []byte { return w.state }); err != nil {
			return err
		}
	}
	// Warm-up: two full join/remove cycles with background traffic.
	var res churnResult
	w.run(time.Time{}, 4, &res)
	if err := w.chk.err(); err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("%d warm-up ops failed", res.failed)
	}
	return nil
}

func (w *churn) handler(i int, p *isis.Process) func(*isis.Message) {
	lg := &w.logs[i]
	return func(m *isis.Message) {
		tr := w.tr.Load()
		op := m.GetInt("op", -1)
		tr.stamp(op, markDeliver, i)
		if !checksumOK(m) {
			w.chk.fail("member %d: op %d: payload checksum mismatch", i, op)
		}
		lg.mu.Lock()
		lg.ab = append(lg.ab, op)
		lg.mu.Unlock()
		tr.stamp(op, markReplyStart, i)
		if err := p.Reply(m, isis.NewMessage()); err != nil {
			w.chk.fail("member %d: op %d: reply: %v", i, op, err)
		}
		tr.stamp(op, markReplyEnd, i)
	}
}

// churnResult is one window's tally.
type churnResult struct {
	attempted, failed   int64
	join, leave, crash  []float64 // ms
	bg                  []float64 // background ABCAST round trips, ms
	changes, stateBytes int64
}

// run drives membership changes and background traffic until the deadline
// (or, with a zero deadline, for the given number of changes).
func (w *churn) run(until time.Time, changes int, res *churnResult) {
	stop := make(chan struct{})
	var bg churnResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.background(stop, &bg)
	}()
	w.changeLoop(until, changes, res)
	close(stop)
	wg.Wait()
	res.attempted += bg.attempted
	res.failed += bg.failed
	res.bg = bg.bg
}

func (w *churn) changeLoop(until time.Time, changes int, res *churnResult) {
	site1 := w.procs[0]
	more := func() bool {
		if until.IsZero() {
			return res.changes < int64(changes) && res.attempted < 2*int64(changes)+4
		}
		return time.Now().Before(until)
	}
	for more() {
		p, err := w.c.Site(4).Spawn()
		if err != nil {
			w.chk.fail("spawn at site 4: %v", err)
			return
		}
		res.attempted++
		start := time.Now()
		_, err = statexfer.JoinWithState(p, w.gid, 10*time.Second, func(state []byte) {
			if len(state) != len(w.state) || crc32.ChecksumIEEE(state) != w.stateCRC {
				w.chk.fail("joiner %v installed a state that differs from the provider's", p.Address())
			}
		})
		end := time.Now()
		if err == nil {
			err = waitView(site1, w.gid, func(v isis.View) bool { return v.Contains(p.Address()) })
		}
		if err != nil {
			res.failed++
			_ = p.Kill()
			continue
		}
		res.join = append(res.join, ms(end.Sub(start)))
		res.changes++
		res.stateBytes += int64(len(w.state))
		w.record("join", start, end)

		res.attempted++
		kind := "leave"
		if w.crashNext {
			kind = "crash"
		}
		w.crashNext = !w.crashNext
		start = time.Now()
		if kind == "leave" {
			err = p.Leave(w.gid)
		} else {
			err = p.Kill()
		}
		if err == nil {
			err = waitView(site1, w.gid, func(v isis.View) bool { return v.Size() == 3 && !v.Contains(p.Address()) })
		}
		end = time.Now()
		_ = p.Kill() // retire a process that left; a no-op after a crash
		if err != nil {
			res.failed++
			continue
		}
		if kind == "leave" {
			res.leave = append(res.leave, ms(end.Sub(start)))
		} else {
			res.crash = append(res.crash, ms(end.Sub(start)))
		}
		res.changes++
		w.record(kind, start, end)
	}
}

func (w *churn) record(kind string, start, end time.Time) {
	if w.tr.Load() != nil {
		w.changes = append(w.changes, change{kind, start, end})
	}
}

// background runs closed-loop ABCASTs from the site-2 member until stop.
func (w *churn) background(stop <-chan struct{}, res *churnResult) {
	p, dests := w.procs[1], []isis.Address{w.gid}
	for {
		select {
		case <-stop:
			return
		default:
		}
		op := w.bgNext
		w.bgNext++
		m := backgroundMessage(w.seed, op)
		tr := w.tr.Load()
		tr.stamp(op, markCastStart, 1)
		start := time.Now()
		_, err := p.Cast(isis.ABCAST, dests, entryAB, m, isis.Replies(1))
		rtt := ms(time.Since(start))
		tr.stamp(op, markCastEnd, 1)
		res.attempted++
		if err != nil {
			res.failed++
			continue
		}
		w.bgOK++
		res.bg = append(res.bg, rtt)
	}
}

// backgroundMessage is one churn background ABCAST: its id and a
// checksummed payload.
func backgroundMessage(seed, op int64) *isis.Message {
	d, crc := payload(seed, op, rpcPayloadSize)
	return isis.NewMessage().PutInt("op", op).PutInt("crc", int64(crc)).PutBytes("d", d)
}

func (w *churn) measure(d time.Duration) *phase {
	var res churnResult
	start := time.Now()
	w.run(start.Add(d), 0, &res)
	ph := &phase{
		elapsed:   time.Since(start),
		attempted: res.attempted,
		failed:    res.failed,
		ops:       res.changes,
		changes:   res.changes,
		bytes:     res.stateBytes + int64(len(res.bg))*rpcPayloadSize,
		latB:      res.bg,
	}
	ph.latA = append(append(append(ph.latA, res.join...), res.leave...), res.crash...)
	ph.alias("join_p50_ms", "ms", res.join, 50)
	ph.alias("leave_p50_ms", "ms", res.leave, 50)
	ph.alias("crash_p50_ms", "ms", res.crash, 50)
	ph.alias("view_change_p90_ms", "ms", ph.latA, 90)
	ph.alias("service_gap_p99_ms", "ms", res.bg, 99)
	ph.violations = w.chk.err()
	return ph
}

// check: the long-lived members delivered the background ABCASTs in one
// identical order, each completed one exactly once. A cast returns after
// one reply, so the other members may still be delivering: wait for them.
func (w *churn) check() error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := w.compareLogs()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *churn) compareLogs() error {
	for i := range w.logs {
		w.logs[i].mu.Lock()
		defer w.logs[i].mu.Unlock()
	}
	for i := range w.logs {
		seen := make(map[int64]int, len(w.logs[i].ab))
		for k, op := range w.logs[i].ab {
			if j, dup := seen[op]; dup {
				return fmt.Errorf("member %d delivered background ABCAST op %d twice, at positions %d and %d of %d", i, op, j, k, len(w.logs[i].ab))
			}
			seen[op] = k
		}
	}
	ref := w.logs[0].ab
	if int64(len(ref)) < w.bgOK {
		return fmt.Errorf("member 0 delivered %d background ABCASTs, %d completed", len(ref), w.bgOK)
	}
	for i := 1; i < len(w.logs); i++ {
		if got := w.logs[i].ab; !slices.Equal(got, ref) {
			k := 0
			for k < min(len(got), len(ref)) && got[k] == ref[k] {
				k++
			}
			return fmt.Errorf("background ABCAST logs differ between member 0 (%d delivered) and member %d (%d delivered) from position %d: %v vs %v",
				len(ref), i, len(got), k, ref[k:min(k+4, len(ref))], got[k:min(k+4, len(got))])
		}
	}
	return nil
}

// layerExtras derives the membership-path figures of the traced window from
// the recorded changes and the event stream, and adds one span tree per
// change:
//
//	change.<kind>      [call, 3-member view at site 1]
//	  protos.flush     [FlushBegin, FlushComplete] per site
//	  protos.install   [first ViewInstalled, last ViewInstalled]
//	  statexfer.xfer   [joiner's ViewInstalled, JoinWithState return]
func (w *churn) layerExtras(tr *tracer, vals map[string]float64) {
	var evs []isis.Event
	for _, e := range tr.events {
		if e.Group.Base() == w.gid.Base() {
			evs = append(evs, e)
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })

	type iv struct{ a, b time.Time }
	var flushes, installs []iv
	var flushMs, skewMs, xferMs, selfMs []float64
	began := map[isis.SiteID]time.Time{}
	views := map[uint64][]time.Time{}
	var fenced, resolicits int
	for _, e := range evs {
		switch e.Kind {
		case isis.EventFlushBegin:
			began[e.Site] = e.Time
		case isis.EventFlushComplete:
			if t, ok := began[e.Site]; ok {
				flushes = append(flushes, iv{t, e.Time})
				flushMs = append(flushMs, ms(e.Time.Sub(t)))
				delete(began, e.Site)
			}
		case isis.EventViewInstalled:
			views[uint64(e.View)] = append(views[uint64(e.View)], e.Time)
		case isis.EventAbcastFenced:
			fenced++
		case isis.EventAbcastResolicit:
			resolicits++
		}
	}
	for _, ts := range views {
		if len(ts) >= 2 {
			installs = append(installs, iv{ts[0], ts[len(ts)-1]})
			skewMs = append(skewMs, ms(ts[len(ts)-1].Sub(ts[0])))
		}
	}
	for k, ch := range w.changes {
		op := -int64(k) - 1
		root := tr.addSpan("change."+ch.kind, op, -1, tr.at(ch.start), tr.at(ch.end))
		within := func(v iv) bool { return !v.a.Before(ch.start) && !v.b.After(ch.end) }
		for _, f := range flushes {
			if within(f) {
				tr.addSpan("protos.flush", op, root, tr.at(f.a), tr.at(f.b))
			}
		}
		for _, in := range installs {
			if within(in) {
				tr.addSpan("protos.install", op, root, tr.at(in.a), tr.at(in.b))
			}
		}
		if ch.kind == "join" {
			if ms, ok := w.xferSpan(tr, evs, ch, op, root); ok {
				xferMs = append(xferMs, ms)
			}
		}
		selfMs = append(selfMs, float64(selfTime(tr.spans[root], tr.spans[root+1:]))/1e6)
	}
	vals["trace.change_self_ms_p50"] = median(selfMs)
	vals["protos.flush_ms_p50"] = median(flushMs)
	vals["protos.install_skew_ms_p50"] = median(skewMs)
	vals["statexfer.xfer_ms_p50"] = median(xferMs)
	if n := float64(len(w.changes)); n > 0 {
		vals["protos.fenced_per_change"] = float64(fenced) / n
		vals["protos.resolicits_per_change"] = float64(resolicits) / n
	}
}

// xferSpan adds the state-transfer span of one join: from the joiner's
// ViewInstalled (the joiner is the only member at site 4, so it is the last
// one at site 4 before JoinWithState returned) to the return.
func (w *churn) xferSpan(tr *tracer, evs []isis.Event, ch change, op int64, root int) (float64, bool) {
	var joined time.Time
	for _, e := range evs {
		if e.Kind == isis.EventViewInstalled && e.Site == 4 && !e.Time.Before(ch.start) && !e.Time.After(ch.end) {
			joined = e.Time
		}
	}
	if joined.IsZero() {
		return 0, false
	}
	tr.addSpan("statexfer.xfer", op, root, tr.at(joined), tr.at(ch.end))
	return ms(ch.end.Sub(joined)), true
}
