package protos

import "iter"

// boundedLog is an insertion-ordered map holding at most a caller-given
// number of live entries: an insert into a full log first evicts the oldest
// entry. The bound counts live entries, not insertions, so a removed entry
// frees its place at once — a log whose entries are mostly removed soon
// after insertion never evicts a long-lived entry early because of them.
// The zero value is an empty log.
//
// Entries sit in a slot array threaded into a circular doubly linked list
// whose sentinel is slot 0; evicted and removed slots are recycled, so an
// insert into a full log allocates nothing.
type boundedLog[K comparable, V any] struct {
	index map[K]int
	slots []logSlot[K, V]
	free  int // first recycled slot, chained through next; 0 if none
}

type logSlot[K comparable, V any] struct {
	key        K
	val        V
	prev, next int
}

// get returns the value stored under k.
func (l *boundedLog[K, V]) get(k K) (V, bool) {
	if i, ok := l.index[k]; ok {
		return l.slots[i].val, true
	}
	var zero V
	return zero, false
}

// has reports whether k is live in the log.
func (l *boundedLog[K, V]) has(k K) bool {
	_, ok := l.index[k]
	return ok
}

// add inserts k with value v as the newest entry, first evicting the oldest
// entry if the log already holds limit (≥ 1) entries. If k is already
// present the log is left unchanged — the original value and position are
// kept — and add reports false.
func (l *boundedLog[K, V]) add(k K, v V, limit int) bool {
	if _, ok := l.index[k]; ok {
		return false
	}
	if l.index == nil {
		l.index = make(map[K]int)
		l.slots = make([]logSlot[K, V], 1)
	}
	if len(l.index) >= limit {
		l.unlink(l.slots[0].next)
	}
	i := l.free
	if i != 0 {
		l.free = l.slots[i].next
	} else {
		i = len(l.slots)
		l.slots = append(l.slots, logSlot[K, V]{})
	}
	tail := l.slots[0].prev
	l.slots[i] = logSlot[K, V]{key: k, val: v, prev: tail}
	l.slots[tail].next = i
	l.slots[0].prev = i
	l.index[k] = i
	return true
}

// set replaces the value stored under k in place, keeping its position, and
// reports whether k was present. An absent k is not inserted.
func (l *boundedLog[K, V]) set(k K, v V) bool {
	i, ok := l.index[k]
	if ok {
		l.slots[i].val = v
	}
	return ok
}

// remove deletes k and returns the value it held.
func (l *boundedLog[K, V]) remove(k K) (V, bool) {
	i, ok := l.index[k]
	if !ok {
		var zero V
		return zero, false
	}
	v := l.slots[i].val
	l.unlink(i)
	return v, true
}

// unlink drops live slot i from the index and the list and recycles it.
func (l *boundedLog[K, V]) unlink(i int) {
	s := &l.slots[i]
	delete(l.index, s.key)
	l.slots[s.prev].next = s.next
	l.slots[s.next].prev = s.prev
	*s = logSlot[K, V]{next: l.free} // release the value for the collector
	l.free = i
}

// all iterates the live entries from oldest to newest. The log must not be
// modified during the iteration.
func (l *boundedLog[K, V]) all() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		if l.slots == nil {
			return
		}
		for i := l.slots[0].next; i != 0; i = l.slots[i].next {
			if !yield(l.slots[i].key, l.slots[i].val) {
				return
			}
		}
	}
}
