package protos

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/msg"
)

// logOp is one step applied to a boundedLog[int, string] under test; ok is
// the result the step must report.
type logOp struct {
	op string // "add", "set" or "remove"
	k  int
	v  string
	ok bool
}

func (o logOp) apply(l *boundedLog[int, string], limit int) bool {
	switch o.op {
	case "add":
		return l.add(o.k, o.v, limit)
	case "set":
		return l.set(o.k, o.v)
	case "remove":
		_, ok := l.remove(o.k)
		return ok
	}
	panic("unknown op " + o.op)
}

// churn is n relays that are tracked and resolved at once, starting at key
// first: the lostRelays working pattern.
func churn(first, n int) []logOp {
	var ops []logOp
	for k := first; k < first+n; k++ {
		ops = append(ops, logOp{"add", k, "t", true}, logOp{"remove", k, "", true})
	}
	return ops
}

func TestBoundedLog(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit int
		ops   []logOp
		want  []string // live entries as "k=v", oldest first
	}{
		{"empty", 3, nil, nil},
		{"evicts the oldest at the limit", 3, []logOp{
			{"add", 1, "a", true}, {"add", 2, "b", true}, {"add", 3, "c", true},
			{"add", 4, "d", true}, {"add", 5, "e", true},
		}, []string{"3=c", "4=d", "5=e"}},
		{"duplicate add keeps the original value and position", 3, []logOp{
			{"add", 1, "a", true}, {"add", 2, "b", true}, {"add", 1, "z", false},
			{"add", 3, "c", true}, {"add", 4, "d", true},
		}, []string{"2=b", "3=c", "4=d"}},
		{"set updates in place and keeps the position", 3, []logOp{
			{"add", 1, "a", true}, {"add", 2, "b", true}, {"set", 1, "A", true},
			{"add", 3, "c", true},
		}, []string{"1=A", "2=b", "3=c"}},
		{"set keeps the oldest entry oldest", 3, []logOp{
			{"add", 1, "a", true}, {"add", 2, "b", true}, {"add", 3, "c", true},
			{"set", 1, "A", true}, {"add", 4, "d", true},
		}, []string{"2=b", "3=c", "4=d"}},
		{"set never inserts", 3, []logOp{
			{"add", 1, "a", true}, {"set", 2, "b", false},
		}, []string{"1=a"}},
		{"remove of an absent key", 3, []logOp{
			{"add", 1, "a", true}, {"remove", 2, "", false}, {"remove", 1, "", true},
			{"remove", 1, "", false},
		}, nil},
		{"a re-added key goes to the back", 3, []logOp{
			{"add", 1, "a", true}, {"add", 2, "b", true}, {"remove", 1, "", true},
			{"add", 1, "z", true},
		}, []string{"2=b", "1=z"}},
		{"removed entries free their place at once", 3, []logOp{
			{"add", 1, "a", true}, {"add", 2, "b", true}, {"add", 3, "c", true},
			{"remove", 2, "", true}, {"add", 4, "d", true},
		}, []string{"1=a", "3=c", "4=d"}},
		// Thousands of promptly resolved relays must not push out the one
		// genuinely lost relay tracked before them: the bound is on live
		// entries, not on insertions.
		{"churn never evicts a live entry early", 4, slices.Concat(
			[]logOp{{"add", 1, "lost", true}},
			churn(100, 5000),
			[]logOp{{"add", 2, "b", true}, {"add", 3, "c", true}},
			churn(10000, 5000),
		), []string{"1=lost", "2=b", "3=c"}},
		{"churn then overflow evicts the oldest live entry", 2, slices.Concat(
			[]logOp{{"add", 1, "a", true}},
			churn(100, 50),
			[]logOp{{"add", 2, "b", true}, {"add", 3, "c", true}},
		), []string{"2=b", "3=c"}},
		{"limit one", 1, []logOp{
			{"add", 1, "a", true}, {"add", 2, "b", true},
		}, []string{"2=b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var l boundedLog[int, string] // the zero value is ready for use
			added := map[int]bool{}
			for i, o := range tc.ops {
				if got := o.apply(&l, tc.limit); got != o.ok {
					t.Fatalf("step %d %s(%d) = %v, want %v", i, o.op, o.k, got, o.ok)
				}
				added[o.k] = true
			}
			var got []string
			for k, v := range l.all() {
				got = append(got, fmt.Sprintf("%d=%s", k, v))
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("entries = %v, want %v", got, tc.want)
			}
			if len(l.index) != len(tc.want) {
				t.Errorf("%d indexed entries, want %d", len(l.index), len(tc.want))
			}
			if len(l.slots) > tc.limit+1 { // freed slots are reused
				t.Errorf("%d slots for a limit of %d", len(l.slots), tc.limit)
			}
			for k := range added {
				v, ok := l.get(k)
				live := slices.Contains(tc.want, fmt.Sprintf("%d=%s", k, v))
				if ok != live || l.has(k) != live {
					t.Errorf("key %d: get ok = %v, has = %v, want %v", k, ok, l.has(k), live)
				}
			}
		})
	}
}

// TestBoundedLogFullInsertAllocatesNothing pins that the per-delivery hot
// path — an insert that evicts from a full recent log — reuses the evicted
// slot instead of allocating.
func TestBoundedLogFullInsertAllocatesNothing(t *testing.T) {
	var l boundedLog[core.MsgID, recentEntry]
	sender := addr.NewProcess(1, 0, 1)
	pkt := msg.New()
	seq := uint64(0)
	insert := func() {
		seq++
		l.add(core.MsgID{Sender: sender, Seq: seq}, recentEntry{pkt: pkt, prio: seq}, recentLimit)
	}
	for i := 0; i < 4*recentLimit; i++ {
		insert()
	}
	if allocs := testing.AllocsPerRun(10000, insert); allocs != 0 {
		t.Errorf("insert into a full log: %v allocs, want 0", allocs)
	}
	if len(l.index) != recentLimit {
		t.Errorf("%d indexed entries, want %d", len(l.index), recentLimit)
	}
}

// TestFlushReportRecentKeepsLastDeliveries delivers more than recentLimit
// messages, CBCAST and ABCAST mixed, into one group and checks the Recent
// list a GBCAST flush report would carry: exactly the last recentLimit
// deliveries, in delivery order, every ABCAST with the final priority it was
// delivered at. The daemon-wide abDone record is hidden while the report is
// built, so each final must come from the recent entry itself.
func TestFlushReportRecentKeepsLastDeliveries(t *testing.T) {
	const total = recentLimit + 60
	tc := quietCluster(t, 2)
	sender, member := tc.newProc(1), tc.newProc(2)
	view, err := tc.daemons[1].CreateGroup(sender.addr, "recent")
	if err != nil {
		t.Fatal(err)
	}
	gid := view.Group
	if _, err := tc.daemons[2].Join(member.addr, gid, JoinOptions{}); err != nil {
		t.Fatal(err)
	}

	isAbcast := map[core.MsgID]bool{}
	for i := 0; i < total; i++ {
		proto := CBCAST
		if i%3 != 0 {
			proto = ABCAST
		}
		id, err := tc.daemons[1].Multicast(sender.addr, proto, addr.List{gid}, addr.EntryUserBase, body(fmt.Sprintf("m%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		isAbcast[id] = proto == ABCAST
	}
	waitFor(t, "every message delivered at the member", 10*time.Second, func() bool {
		return member.numMsgs() == total
	})

	d := tc.daemons[2]
	d.mu.Lock()
	finals := d.abDone
	d.abDone = boundedLog[core.MsgID, uint64]{}
	rep := d.buildReportLocked(d.groups[gid])
	d.abDone = finals
	d.mu.Unlock()

	delivered := member.bodies()[total-recentLimit:]
	if len(rep.Recent) != recentLimit {
		t.Fatalf("report carries %d recent entries, want %d", len(rep.Recent), recentLimit)
	}
	var lastPrio uint64
	for i, rc := range rep.Recent {
		if got := rc.Packet.GetMessage(fPayload).GetString("body", ""); got != delivered[i] {
			t.Fatalf("recent[%d] = %s, want %s (delivery order)", i, got, delivered[i])
		}
		if getMsgID(rc.Packet) != rc.ID {
			t.Errorf("recent[%d]: id %v does not match its packet", i, rc.ID)
		}
		if !isAbcast[rc.ID] {
			if rc.Priority != 0 {
				t.Errorf("recent[%d] is a CBCAST with priority %d", i, rc.Priority)
			}
			continue
		}
		final, ok := finals.get(rc.ID)
		if !ok || rc.Priority != final {
			t.Errorf("recent[%d] priority = %d, want final %d (recorded %v)", i, rc.Priority, final, ok)
		}
		if rc.Priority <= lastPrio {
			t.Errorf("recent[%d] priority %d does not follow %d in total order", i, rc.Priority, lastPrio)
		}
		lastPrio = rc.Priority
	}
}
