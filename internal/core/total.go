package core

import (
	"container/heap"
	"sort"
)

// The ABCAST protocol (Section 3.1 of the paper, specified in [Birman-a]) is
// a two-phase priority-agreement protocol:
//
//  1. the sender multicasts the message to every destination;
//  2. each destination assigns it a proposed priority (one larger than any
//     priority it has used or seen) and sends the proposal back;
//  3. the sender picks the maximum proposal as the final priority and
//     multicasts a commit;
//  4. destinations hold messages in a priority-ordered queue and deliver a
//     message once it is committed and no pending message — committed or not
//     — has a smaller priority.
//
// Because every destination agrees on the final priority and ties are broken
// by the globally unique message id, the delivery order is identical at all
// destinations, which is exactly the ABCAST guarantee.

// TotalDelivery is one message released by the total-order queue, with the
// final priority it was delivered at (the GBCAST flush reports it so other
// sites can complete a straggler at the exact same final).
type TotalDelivery struct {
	ID       MsgID
	Payload  any
	Priority uint64
}

// abPending is one message awaiting delivery at a destination.
type abPending struct {
	id        MsgID
	payload   any
	priority  uint64 // proposed until committed, then final
	committed bool
	index     int // position in the queue's heap
}

// pendingHeap orders pending messages by (priority, id): its root is the
// head of the delivery order. Each entry tracks its own index, so a commit
// that changes an entry's priority re-sifts just that entry.
type pendingHeap []*abPending

// Len implements heap.Interface.
func (h pendingHeap) Len() int { return len(h) }

// Less orders by priority, then by message id.
func (h pendingHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority < h[j].priority
	}
	return h[i].id.Less(h[j].id)
}

// Swap implements heap.Interface, keeping each entry's index current.
func (h pendingHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

// Push implements heap.Interface.
func (h *pendingHeap) Push(x any) {
	p := x.(*abPending)
	p.index = len(*h)
	*h = append(*h, p)
}

// Pop implements heap.Interface.
func (h *pendingHeap) Pop() any {
	old := *h
	p := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return p
}

// TotalQueue is the per-member receiver state of the ABCAST protocol. It is
// not safe for concurrent use; the owning protocols process serializes
// access.
type TotalQueue struct {
	clock     uint64 // largest priority proposed or observed
	pending   map[MsgID]*abPending
	order     pendingHeap    // the pending entries, head first
	delivered map[MsgID]bool // dedup of already-delivered ids (bounded)
	history   []MsgID        // insertion order of delivered, for bounding
	maxHist   int
}

// NewTotalQueue returns an empty queue. historyLimit bounds the
// duplicate-suppression memory; 0 selects a reasonable default.
func NewTotalQueue(historyLimit int) *TotalQueue {
	if historyLimit <= 0 {
		historyLimit = 1024
	}
	return &TotalQueue{
		pending:   make(map[MsgID]*abPending),
		delivered: make(map[MsgID]bool),
		maxHist:   historyLimit,
	}
}

// Propose records the arrival of phase-1 data for a message and returns the
// priority this member proposes for it. Proposing the same message twice
// returns the original proposal (idempotent).
func (q *TotalQueue) Propose(id MsgID, payload any) uint64 {
	if p, ok := q.pending[id]; ok {
		return p.priority
	}
	if q.delivered[id] {
		// Already delivered (a late duplicate); re-propose its old priority
		// is impossible, but any value is safe because the sender has
		// already committed. Return the current clock.
		return q.clock
	}
	q.clock++
	p := &abPending{id: id, payload: payload, priority: q.clock}
	q.pending[id] = p
	heap.Push(&q.order, p)
	return q.clock
}

// Commit records the final priority decided by the sender and returns every
// message that has become deliverable, in delivery order. Committing an
// unknown or already-delivered message returns only whatever else may have
// become deliverable (it is not an error: commits can race with view-change
// reconciliation).
func (q *TotalQueue) Commit(id MsgID, final uint64) []TotalDelivery {
	if p, ok := q.pending[id]; ok {
		q.finalize(p, final)
	}
	return q.drain()
}

// finalize fixes p's final priority and moves it to its place in the
// delivery order.
func (q *TotalQueue) finalize(p *abPending, final uint64) {
	p.priority = final
	p.committed = true
	if final > q.clock {
		q.clock = final
	}
	heap.Fix(&q.order, p.index)
}

// drain delivers committed messages from the head of the priority order.
func (q *TotalQueue) drain() []TotalDelivery {
	var out []TotalDelivery
	for {
		head := q.head()
		if head == nil || !head.committed {
			return out
		}
		heap.Pop(&q.order)
		delete(q.pending, head.id)
		q.markDelivered(head.id)
		out = append(out, TotalDelivery{ID: head.id, Payload: head.payload, Priority: head.priority})
	}
}

// head returns the pending message with the smallest (priority, id).
func (q *TotalQueue) head() *abPending {
	if len(q.order) == 0 {
		return nil
	}
	return q.order[0]
}

func (q *TotalQueue) markDelivered(id MsgID) {
	q.delivered[id] = true
	q.history = append(q.history, id)
	if len(q.history) > q.maxHist {
		old := q.history[0]
		q.history = q.history[1:]
		delete(q.delivered, old)
	}
}

// Delivered reports whether the queue has already delivered the message
// (within its bounded memory).
func (q *TotalQueue) Delivered(id MsgID) bool { return q.delivered[id] }

// HeadBlocked returns the message at the head of the priority order when it
// is still uncommitted — the entry whose missing final priority is blocking
// every later committed delivery. The second result is false when the queue
// is empty or its head is committed (and therefore about to drain). The
// re-solicitation watchdog polls this to detect stragglers.
func (q *TotalQueue) HeadBlocked() (MsgID, any, bool) {
	head := q.head()
	if head == nil || head.committed {
		return MsgID{}, nil, false
	}
	return head.id, head.payload, true
}

// PendingCount returns the number of messages awaiting delivery.
func (q *TotalQueue) PendingCount() int { return len(q.pending) }

// PendingState describes one pending ABCAST for view-change reconciliation.
type PendingState struct {
	ID        MsgID
	Payload   any
	Priority  uint64
	Committed bool
}

// Pending returns a snapshot of the pending messages sorted by id. The
// GBCAST flush collects these from every member when a view change is being
// installed, so that a message committed at some member but not others can
// be completed everywhere (the all-or-nothing atomicity rule when a sender
// fails).
func (q *TotalQueue) Pending() []PendingState {
	out := make([]PendingState, 0, len(q.pending))
	for _, p := range q.pending {
		out = append(out, PendingState{ID: p.id, Payload: p.payload, Priority: p.priority, Committed: p.committed})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// ForceCommit is used by view-change reconciliation: it installs (if absent)
// and commits a message at the given final priority, returning any newly
// deliverable messages. Already-delivered messages are ignored.
func (q *TotalQueue) ForceCommit(id MsgID, payload any, final uint64) []TotalDelivery {
	if q.delivered[id] {
		return q.drain()
	}
	p, ok := q.pending[id]
	if !ok {
		p = &abPending{id: id, payload: payload, priority: final}
		q.pending[id] = p
		heap.Push(&q.order, p)
	}
	q.finalize(p, final)
	return q.drain()
}

// Discard removes a pending, uncommitted message (the fate of an ABCAST
// whose sender failed before any member learned the final priority — the
// "none" branch of the atomicity rule — or of one a GBCAST flush fences
// behind a view change) and returns any messages its removal unblocks: a
// committed entry queued behind the discarded head becomes deliverable the
// moment the head disappears. Discarding an unknown id is a no-op.
func (q *TotalQueue) Discard(id MsgID) []TotalDelivery {
	if p, ok := q.pending[id]; ok && !p.committed {
		delete(q.pending, id)
		heap.Remove(&q.order, p.index)
	}
	return q.drain()
}

// Clock returns the largest priority proposed or observed so far.
func (q *TotalQueue) Clock() uint64 { return q.clock }
