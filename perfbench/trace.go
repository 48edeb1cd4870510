package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	isis "repro"
	"repro/internal/simnet"
)

// The tracer is attached only in the traced half of a -trace 1 run. It
// records time stamps the benchmark takes around its own calls into the
// stack (Cast entry and return, handler entry, Reply), the simnet link
// events, and the operational event stream. Nothing is added to the program
// under test. Stamps are kept in memory; spans are built from them and
// written out when the run ends.

type markKind uint8

const (
	markCastStart markKind = iota
	markCastEnd
	markDeliver
	markReplyStart
	markReplyEnd
)

// mark is one time stamp of one operation, taken by member who.
type mark struct {
	op   int64
	t    int64 // ns since the tracer's base
	kind markKind
	who  int8
}

// maxMarks bounds the tracer's memory and span file; stamps beyond it are
// dropped.
const maxMarks = 1 << 18

type tracer struct {
	base time.Time

	mu    sync.Mutex
	marks []mark

	linkMu   sync.Mutex
	inflight map[[2]isis.SiteID][]simnet.Event // sends not yet delivered, per link
	waits    []float64                         // µs a packet waited beyond its assigned delay

	evMu    sync.Mutex
	events  []isis.Event
	evWG    sync.WaitGroup
	cancels []func()

	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), inflight: make(map[[2]isis.SiteID][]simnet.Event)}
}

// now returns the current time on the tracer's clock.
func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// at converts a wall-clock time (with monotonic reading) to the tracer clock.
func (tr *tracer) at(t time.Time) int64 { return int64(t.Sub(tr.base)) }

// stamp records one mark; a nil tracer records nothing, so call sites need
// no branch of their own.
func (tr *tracer) stamp(op int64, kind markKind, who int) {
	if tr == nil {
		return
	}
	t := tr.now()
	tr.mu.Lock()
	if len(tr.marks) < maxMarks {
		tr.marks = append(tr.marks, mark{op: op, t: t, kind: kind, who: int8(who)})
	}
	tr.mu.Unlock()
}

// Trace implements simnet.Tracer: it pairs each delivery with its send on
// the same link (links are FIFO) and keeps the extra wait.
func (tr *tracer) Trace(e simnet.Event) {
	key := [2]isis.SiteID{e.From, e.To}
	tr.linkMu.Lock()
	defer tr.linkMu.Unlock()
	switch e.Kind {
	case simnet.EventSend:
		tr.inflight[key] = append(tr.inflight[key], e)
	case simnet.EventDeliver, simnet.EventDiscard:
		q := tr.inflight[key]
		if len(q) == 0 {
			return // sent before the tracer was attached
		}
		sent := q[0]
		tr.inflight[key] = q[1:]
		if e.Kind == simnet.EventDeliver && len(tr.waits) < maxMarks {
			wait := e.When.Sub(sent.When) - sent.Latency
			tr.waits = append(tr.waits, float64(wait)/float64(time.Microsecond))
		}
	}
}

// attach subscribes to every site's event stream and, on simnet, installs
// the link tracer.
func (tr *tracer) attach(c *isis.Cluster) {
	if sim, ok := c.Fabric().(*simnet.Network); ok {
		sim.SetTracer(tr)
	}
	for _, s := range c.Sites() {
		ch, cancel := s.Events(isis.EventFilter{})
		tr.cancels = append(tr.cancels, cancel)
		tr.evWG.Add(1)
		go func() {
			defer tr.evWG.Done()
			for e := range ch {
				tr.evMu.Lock()
				tr.events = append(tr.events, e)
				tr.evMu.Unlock()
			}
		}()
	}
}

// detach undoes attach and waits for the event readers to finish.
func (tr *tracer) detach(c *isis.Cluster) {
	if sim, ok := c.Fabric().(*simnet.Network); ok {
		sim.SetTracer(nil)
	}
	for _, cancel := range tr.cancels {
		cancel()
	}
	tr.evWG.Wait()
}

// span is one interval of one operation. parent indexes tr.spans (-1 for a
// root).
type span struct {
	name       string
	op         int64
	parent     int
	start, end int64
}

func (tr *tracer) addSpan(name string, op int64, parent int, start, end int64) int {
	tr.spans = append(tr.spans, span{name: name, op: op, parent: parent, start: start, end: end})
	return len(tr.spans) - 1
}

// castTimes are the per-operation figures derived from cast stamps, in µs.
type castTimes struct {
	send         []float64 // asynchronous Cast call, entry to return
	localDeliver []float64 // Cast entry to the caller's own handler
	allDelivered []float64 // Cast entry to the last member's handler
	handler      []float64 // handler entry to its Reply call
	replyCall    []float64 // one Reply call
	replyCollect []float64 // the Reply that completed the cast, to Cast return
}

// buildCastSpans turns the stamps into spans, one tree per operation:
//
//	op                 [Cast entry, last stamp]
//	  isis.send        [Cast entry, Cast return]         (asynchronous casts)
//	  isis.deliver     [Cast entry, handler entry]       (one per member)
//	  app.handler      [handler entry, Reply call]       (one per member)
//	  isis.reply       [Reply call, Reply return]        (one per member)
//	  isis.collect     [completing Reply call, Cast return]
//
// The completing Reply is the last one before Cast returned: the last of
// all for Replies(All), the first for Replies(1). The children are leaves,
// so their self time is their duration.
func (tr *tracer) buildCastSpans() castTimes {
	sort.Slice(tr.marks, func(i, j int) bool {
		if tr.marks[i].op != tr.marks[j].op {
			return tr.marks[i].op < tr.marks[j].op
		}
		return tr.marks[i].t < tr.marks[j].t
	})
	var out castTimes
	for i := 0; i < len(tr.marks); {
		j := i
		for j < len(tr.marks) && tr.marks[j].op == tr.marks[i].op {
			j++
		}
		tr.opSpans(tr.marks[i:j], &out)
		i = j
	}
	return out
}

func (tr *tracer) opSpans(ms []mark, out *castTimes) {
	const none = int64(-1)
	start, end, last := none, none, ms[0].t
	caller := -1
	deliver := map[int]int64{}
	replyStart := map[int]int64{}
	replyEnd := map[int]int64{}
	first := func(m map[int]int64, who int, t int64) {
		if _, ok := m[who]; !ok { // a redelivered duplicate keeps the first stamp
			m[who] = t
		}
	}
	for _, m := range ms {
		last = max(last, m.t)
		switch m.kind {
		case markCastStart:
			start, caller = m.t, int(m.who)
		case markCastEnd:
			end = m.t
		case markDeliver:
			first(deliver, int(m.who), m.t)
		case markReplyStart:
			first(replyStart, int(m.who), m.t)
		case markReplyEnd:
			first(replyEnd, int(m.who), m.t)
		}
	}
	if start == none || end == none {
		return // the op straddled the traced window
	}
	op := ms[0].op
	root := tr.addSpan("op", op, -1, start, last)
	if len(replyStart) == 0 {
		tr.addSpan("isis.send", op, root, start, end)
		out.send = append(out.send, us(end-start))
	}
	lastDeliver, completing := none, none
	for who, t := range deliver {
		tr.addSpan("isis.deliver", op, root, start, t)
		lastDeliver = max(lastDeliver, t)
		rs, ok := replyStart[who]
		if !ok {
			continue
		}
		tr.addSpan("app.handler", op, root, t, rs)
		out.handler = append(out.handler, us(rs-t))
		if re, ok := replyEnd[who]; ok {
			tr.addSpan("isis.reply", op, root, rs, re)
			out.replyCall = append(out.replyCall, us(re-rs))
		}
		if rs <= end {
			completing = max(completing, rs)
		}
	}
	if completing != none {
		tr.addSpan("isis.collect", op, root, completing, end)
		out.replyCollect = append(out.replyCollect, us(end-completing))
	}
	if t, ok := deliver[caller]; ok {
		out.localDeliver = append(out.localDeliver, us(t-start))
	}
	if len(deliver) >= groupSize {
		out.allDelivered = append(out.allDelivered, us(lastDeliver-start))
	}
}

// selfTime is the part of root's interval that none of the children cover.
func selfTime(root span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, root.start), min(c.end, root.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, reach := int64(0), root.start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return (root.end - root.start) - covered
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// writeSpans writes every span as one tab-separated line:
// op, name, parent index, start ns, end ns.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tname\tparent\tstart_ns\tend_ns")
	for _, s := range tr.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", s.op, s.name, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
