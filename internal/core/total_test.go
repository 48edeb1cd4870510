package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// runABCAST simulates the full two-phase protocol for a set of destination
// queues: phase 1 proposes at every destination, the "sender" picks the max,
// and phase 2 commits everywhere. Deliveries at each destination are
// appended to the per-destination logs. The commit order across different
// messages can be permuted by the caller via the apply function.
func propose(queues []*TotalQueue, id MsgID, payload any) uint64 {
	var max uint64
	for _, q := range queues {
		if p := q.Propose(id, payload); p > max {
			max = p
		}
	}
	return max
}

func TestSingleABCASTDelivery(t *testing.T) {
	q := NewTotalQueue(0)
	id := mkID(0, 1)
	prio := q.Propose(id, "hello")
	if prio != 1 {
		t.Errorf("first proposal = %d", prio)
	}
	out := q.Commit(id, prio)
	if len(out) != 1 || out[0].Payload != "hello" || out[0].ID != id {
		t.Fatalf("deliveries = %v", out)
	}
	if !q.Delivered(id) {
		t.Error("Delivered() false after delivery")
	}
	if q.PendingCount() != 0 {
		t.Error("pending not drained")
	}
}

func TestCommitBlocksBehindSmallerUncommitted(t *testing.T) {
	q := NewTotalQueue(0)
	a := mkID(0, 1)
	b := mkID(1, 1)
	pa := q.Propose(a, "a") // priority 1
	pb := q.Propose(b, "b") // priority 2
	if pa != 1 || pb != 2 {
		t.Fatalf("proposals = %d %d", pa, pb)
	}
	// Commit b first with final priority 2: it must NOT be delivered while
	// a (priority 1, uncommitted) is still pending, because a's final
	// priority could end up below 2.
	if out := q.Commit(b, 2); len(out) != 0 {
		t.Fatalf("b delivered ahead of uncommitted a: %v", out)
	}
	// Now commit a at priority 5 (> b): both become deliverable, b first.
	out := q.Commit(a, 5)
	if len(out) != 2 || out[0].Payload != "b" || out[1].Payload != "a" {
		t.Fatalf("delivery order = %v", out)
	}
}

func TestIdenticalOrderAcrossDestinations(t *testing.T) {
	// Three destinations, five concurrent ABCASTs committed in different
	// orders at each destination: the delivery order must nevertheless be
	// identical everywhere.
	const dests = 3
	const msgs = 5
	queues := make([]*TotalQueue, dests)
	for i := range queues {
		queues[i] = NewTotalQueue(0)
	}
	ids := make([]MsgID, msgs)
	finals := make([]uint64, msgs)
	for m := 0; m < msgs; m++ {
		ids[m] = mkID(m%2, uint64(m+1))
		finals[m] = propose(queues, ids[m], m)
	}
	// Commit in a different permutation at each destination.
	perms := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}}
	logs := make([][]int, dests)
	for d, q := range queues {
		for _, m := range perms[d] {
			for _, del := range q.Commit(ids[m], finals[m]) {
				logs[d] = append(logs[d], del.Payload.(int))
			}
		}
	}
	for d := 1; d < dests; d++ {
		if !reflect.DeepEqual(logs[0], logs[d]) {
			t.Fatalf("destination %d delivered %v, destination 0 delivered %v", d, logs[d], logs[0])
		}
	}
	if len(logs[0]) != msgs {
		t.Fatalf("delivered %d of %d", len(logs[0]), msgs)
	}
}

func TestProposeIdempotent(t *testing.T) {
	q := NewTotalQueue(0)
	id := mkID(0, 1)
	p1 := q.Propose(id, "x")
	p2 := q.Propose(id, "x")
	if p1 != p2 {
		t.Errorf("duplicate proposal changed priority: %d vs %d", p1, p2)
	}
	if q.PendingCount() != 1 {
		t.Errorf("duplicate proposal duplicated pending entry")
	}
}

func TestCommitUnknownIsHarmless(t *testing.T) {
	q := NewTotalQueue(0)
	if out := q.Commit(mkID(0, 9), 10); len(out) != 0 {
		t.Errorf("commit of unknown id delivered something: %v", out)
	}
}

func TestProposeAfterDelivery(t *testing.T) {
	q := NewTotalQueue(0)
	id := mkID(0, 1)
	q.Propose(id, "x")
	q.Commit(id, 1)
	// A late duplicate of phase 1 must not resurrect the message.
	q.Propose(id, "x")
	if q.PendingCount() != 0 {
		t.Error("late duplicate re-queued a delivered message")
	}
}

func TestClockAdvancesToFinalPriority(t *testing.T) {
	q := NewTotalQueue(0)
	a := mkID(0, 1)
	q.Propose(a, "a")
	q.Commit(a, 10) // some other destination proposed 10
	if q.Clock() != 10 {
		t.Errorf("clock = %d, want 10", q.Clock())
	}
	// The next proposal must exceed any priority this member has observed,
	// otherwise total order could be violated.
	b := mkID(1, 1)
	if p := q.Propose(b, "b"); p != 11 {
		t.Errorf("next proposal = %d, want 11", p)
	}
}

func TestForceCommitAndDiscard(t *testing.T) {
	q := NewTotalQueue(0)
	known := mkID(0, 1)
	q.Propose(known, "known")
	// Reconciliation forces an unknown message through: it must be
	// installed and delivered at the given priority.
	unknown := mkID(1, 7)
	out := q.ForceCommit(unknown, "recovered", 1)
	// known (uncommitted, priority 1 proposed) may block depending on tie
	// break: known has id sender rank 0 < unknown's sender rank 1 at the
	// same priority, so nothing is deliverable yet.
	if len(out) != 0 {
		t.Fatalf("force-commit delivered ahead of a smaller pending id: %v", out)
	}
	// Discarding the blocking head unblocks — and delivers — the committed
	// entry queued behind it.
	out = q.Discard(known)
	if len(out) != 1 || out[0].Payload != "recovered" {
		t.Fatalf("discard did not unblock the committed entry behind it: %v", out)
	}
	// Force-committing an already delivered message is a no-op.
	if out := q.ForceCommit(unknown, "dup", 1); len(out) != 0 {
		t.Errorf("duplicate force-commit delivered: %v", out)
	}
	// Discarding a committed or unknown message is a no-op.
	q.Discard(unknown)
	q.Discard(mkID(5, 5))
}

func TestDiscardOnlyUncommitted(t *testing.T) {
	q := NewTotalQueue(0)
	id := mkID(0, 1)
	q.Propose(id, "x")
	q.Commit(id, 1)
	q2 := NewTotalQueue(0)
	id2 := mkID(0, 2)
	q2.Propose(id2, "y")
	// Commit with a priority that keeps it pending behind nothing: deliver.
	q2.Commit(id2, 1)
	q2.Discard(id2) // already delivered: no-op
	if q2.PendingCount() != 0 {
		t.Error("Discard corrupted state")
	}
}

func TestPendingSnapshot(t *testing.T) {
	q := NewTotalQueue(0)
	a, b := mkID(1, 1), mkID(0, 1)
	q.Propose(a, "a")
	q.Propose(b, "b")
	q.Commit(a, 5)
	pend := q.Pending()
	if len(pend) != 2 {
		t.Fatalf("Pending = %v", pend)
	}
	// Sorted by id: b's sender (site 1) sorts before a's (site 2).
	if pend[0].ID != b || pend[1].ID != a {
		t.Errorf("Pending order = %v", pend)
	}
	if !pend[1].Committed || pend[0].Committed {
		t.Error("commit flags wrong in snapshot")
	}
	if pend[1].Priority != 5 {
		t.Error("priority wrong in snapshot")
	}
}

func TestHistoryBound(t *testing.T) {
	q := NewTotalQueue(3)
	for i := 1; i <= 5; i++ {
		id := mkID(0, uint64(i))
		p := q.Propose(id, i)
		q.Commit(id, p)
	}
	// Only the last 3 ids are remembered.
	if q.Delivered(mkID(0, 1)) {
		t.Error("history not bounded")
	}
	if !q.Delivered(mkID(0, 5)) {
		t.Error("recent delivery forgotten")
	}
}

// Property test: for random message sets and random per-destination commit
// interleavings, all destinations deliver the same sequence, exactly once
// per message (agreement + total order + integrity).
func TestTotalOrderRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		dests := 2 + rng.Intn(4)
		msgs := 1 + rng.Intn(12)
		queues := make([]*TotalQueue, dests)
		for i := range queues {
			queues[i] = NewTotalQueue(0)
		}
		ids := make([]MsgID, msgs)
		finals := make([]uint64, msgs)
		// Phase 1 in a random per-destination arrival order.
		for m := 0; m < msgs; m++ {
			ids[m] = mkID(rng.Intn(5), uint64(trial*100+m))
		}
		for _, q := range queues {
			for _, m := range rng.Perm(msgs) {
				if p := q.Propose(ids[m], m); p > finals[m] {
					finals[m] = p
				}
			}
		}
		logs := make([][]int, dests)
		for d, q := range queues {
			for _, m := range rng.Perm(msgs) {
				for _, del := range q.Commit(ids[m], finals[m]) {
					logs[d] = append(logs[d], del.Payload.(int))
				}
			}
		}
		for d := 0; d < dests; d++ {
			if len(logs[d]) != msgs {
				t.Fatalf("trial %d: destination %d delivered %d of %d", trial, d, len(logs[d]), msgs)
			}
			if !reflect.DeepEqual(logs[d], logs[0]) {
				t.Fatalf("trial %d: destination %d order %v != %v", trial, d, logs[d], logs[0])
			}
		}
	}
}

// TestTotalQueueMatchesLinearScan drives the queue through random proposals,
// commits, forced commits and discards, and checks every delivery and every
// HeadBlocked answer against a model that scans all pending entries for the
// smallest (priority, id) — the definition the heap must keep.
func TestTotalQueueMatchesLinearScan(t *testing.T) {
	type entry struct {
		id        MsgID
		priority  uint64
		committed bool
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := NewTotalQueue(0)
		model := map[MsgID]*entry{}
		modelHead := func() *entry {
			var best *entry
			for _, e := range model {
				if best == nil || e.priority < best.priority ||
					(e.priority == best.priority && e.id.Less(best.id)) {
					best = e
				}
			}
			return best
		}
		modelDrain := func() []MsgID {
			var out []MsgID
			for h := modelHead(); h != nil && h.committed; h = modelHead() {
				delete(model, h.id)
				out = append(out, h.id)
			}
			return out
		}
		ids := func(ds []TotalDelivery) []MsgID {
			var out []MsgID
			for _, d := range ds {
				out = append(out, d.ID)
			}
			return out
		}
		var known []MsgID
		for step := 0; step < 400; step++ {
			var got, want []MsgID
			switch op := rng.Intn(10); {
			case op < 4 || len(known) == 0:
				id := mkID(rng.Intn(4), uint64(step+1))
				prio := q.Propose(id, nil)
				model[id] = &entry{id: id, priority: prio}
				known = append(known, id)
			case op < 7:
				id := known[rng.Intn(len(known))]
				final := q.Clock() + uint64(rng.Intn(3))
				if e, ok := model[id]; ok {
					e.priority, e.committed = final, true
				}
				got, want = ids(q.Commit(id, final)), modelDrain()
			case op < 8:
				id := known[rng.Intn(len(known))]
				final := uint64(rng.Intn(int(q.Clock()) + 2))
				if !q.Delivered(id) {
					e, ok := model[id]
					if !ok {
						e = &entry{id: id}
						model[id] = e
					}
					e.priority, e.committed = final, true
				}
				got, want = ids(q.ForceCommit(id, nil, final)), modelDrain()
			default:
				id := known[rng.Intn(len(known))]
				if e, ok := model[id]; ok && !e.committed {
					delete(model, id)
				}
				got, want = ids(q.Discard(id)), modelDrain()
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: delivered %v, want %v", seed, step, got, want)
			}
			id, _, blocked := q.HeadBlocked()
			h := modelHead()
			if wantBlocked := h != nil && !h.committed; blocked != wantBlocked || (blocked && id != h.id) {
				t.Fatalf("seed %d step %d: HeadBlocked = %v %v, want %v", seed, step, id, blocked, h)
			}
			if q.PendingCount() != len(model) {
				t.Fatalf("seed %d step %d: %d pending, want %d", seed, step, q.PendingCount(), len(model))
			}
		}
	}
}

// BenchmarkTotalQueueCommitBacklog commits one message at a time into a
// backlog of 10,000 pending entries whose head stays uncommitted, the shape
// of an ABCAST flood waiting behind a straggler: each commit and head probe
// must cost O(log n), not a scan of the backlog.
func BenchmarkTotalQueueCommitBacklog(b *testing.B) {
	const backlog = 10000
	q := NewTotalQueue(0)
	straggler := mkID(0, 1)
	q.Propose(straggler, nil)
	next := uint64(1)
	pending := make([]MsgID, 0, backlog)
	for len(pending) < backlog {
		next++
		id := mkID(1, next)
		q.Propose(id, nil)
		pending = append(pending, id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Commit the oldest entry and propose a fresh one, keeping the
		// backlog at its size.
		id := pending[i%backlog]
		q.Commit(id, q.Clock()+1)
		if _, _, blocked := q.HeadBlocked(); !blocked {
			b.Fatal("straggler no longer blocks the head")
		}
		next++
		fresh := mkID(1, next)
		q.Propose(fresh, nil)
		pending[i%backlog] = fresh
	}
}
